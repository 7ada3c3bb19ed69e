package wire

// Coordinator messages. Every change of ownership the rank-0
// coordinator makes outside a single migration — admitting a joiner,
// draining a leaver, repairing after a death — ends in one WELCOME: an
// ownership delta naming the new view (if membership moved), the rank
// that died (if one did) and the objects that changed home. A fresh
// node opens with JOIN, presenting the digest of the program it was
// rewritten from (admission is refused on a mismatch — a joiner built
// from a different program cannot share objects); the reply is the
// WELCOME every member also receives. LEAVE asks a member to drain;
// PROMOTE asks a survivor to install its replicas of a dead rank's
// objects as authoritative copies. Every coordination command but JOIN
// is answered with one Reply. All ride the ordinary tagged
// request/response machinery on the system thread.

func appendIDs(b []byte, ids []int64) []byte {
	b = appendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendVarint(b, id)
	}
	return b
}

func (r *Reader) ids() []int64 {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Varint()
	}
	return out
}

// Home places one object: ID now lives on Rank.
type Home struct {
	ID   int64
	Rank int
}

func appendHomes(b []byte, hs []Home) []byte {
	b = appendUvarint(b, uint64(len(hs)))
	for _, h := range hs {
		b = appendVarint(b, h.ID)
		b = appendUvarint(b, uint64(h.Rank))
	}
	return b
}

func (r *Reader) homes() []Home {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]Home, n)
	for i := range out {
		out[i] = Home{ID: r.Varint(), Rank: int(r.Uvarint())}
	}
	return out
}

// JoinRequest asks the coordinator to admit the sender into the
// cluster.
type JoinRequest struct {
	// Addr is the joiner's transport address ("" on an in-process
	// fabric).
	Addr string
	// Digest identifies the program image the joiner runs; admission
	// requires it to equal the coordinator's own.
	Digest uint64
	// Speed is the joiner's relative CPU speed (1.0 = baseline).
	Speed float64
}

// Encode serialises the request into a pooled buffer.
func (m *JoinRequest) Encode() []byte {
	b := appendString(GetBuf(), m.Addr)
	b = appendUvarint(b, m.Digest)
	return appendFloat(b, m.Speed)
}

// DecodeJoinRequest parses a JoinRequest payload.
func DecodeJoinRequest(data []byte) (JoinRequest, error) {
	r := NewReader(data)
	m := JoinRequest{Addr: r.String(), Digest: r.Uvarint(), Speed: r.Float()}
	return m, r.Err()
}

// Welcome is the coordinator's one ownership delta. As a JOIN reply it
// tells the joiner whether it is in; as a broadcast it moves every
// member to the same state. Body: head byte (Accept 0x01, view 0x02,
// Dead 0x04) · Reason · [ViewID · Size · Departed] · [Dead] · Homes; an
// undefined head bit is a decode error.
type Welcome struct {
	// Accept reports admission; Reason explains a refusal.
	Accept bool
	Reason string
	// ViewID and Size describe the new view: Size is the total rank
	// space (departed ranks keep their numbers), Departed lists ranks
	// that have left gracefully. All three are absent (zero) when
	// membership did not move — on a static cluster always.
	ViewID   uint64
	Size     int
	Departed []int
	// Dead is a rank that failed, for every member to forget; 0 is none
	// (rank 0 coordinates and is never declared dead).
	Dead int
	// Homes are the objects that changed home: drained off a leaver or
	// promoted from a dead rank's replicas.
	Homes []Home
}

const (
	welcomeAccept = 1 << iota
	welcomeView
	welcomeDead
)

// Encode serialises the message into a pooled buffer.
func (m *Welcome) Encode() []byte {
	var head byte
	if m.Accept {
		head |= welcomeAccept
	}
	view := m.ViewID != 0 || m.Size != 0 || len(m.Departed) > 0
	if view {
		head |= welcomeView
	}
	if m.Dead != 0 {
		head |= welcomeDead
	}
	b := appendString(append(GetBuf(), head), m.Reason)
	if view {
		b = appendUvarint(b, m.ViewID)
		b = appendUvarint(b, uint64(m.Size))
		b = appendInts(b, m.Departed)
	}
	if m.Dead != 0 {
		b = appendUvarint(b, uint64(m.Dead))
	}
	return appendHomes(b, m.Homes)
}

// DecodeWelcome parses a Welcome payload.
func DecodeWelcome(data []byte) (Welcome, error) {
	r := NewReader(data)
	head := r.Byte()
	if head&^(welcomeAccept|welcomeView|welcomeDead) != 0 {
		r.fail("welcome head %#x has undefined bits", head)
	}
	m := Welcome{Accept: head&welcomeAccept != 0, Reason: r.String()}
	if head&welcomeView != 0 {
		m.ViewID, m.Size, m.Departed = r.Uvarint(), int(r.Uvarint()), r.ints()
	}
	if head&welcomeDead != 0 {
		m.Dead = int(r.Uvarint())
	}
	m.Homes = r.homes()
	return m, r.Err()
}

// PromoteRequest asks a survivor to promote every valid replica it
// holds of an object Dead owned, except the ids lower ranks have
// promoted already (Promoted, ascending).
type PromoteRequest struct {
	Dead     int
	Promoted []int64
}

// Encode serialises the request into a pooled buffer.
func (m *PromoteRequest) Encode() []byte {
	return appendIDs(appendUvarint(GetBuf(), uint64(m.Dead)), m.Promoted)
}

// DecodePromoteRequest parses a PromoteRequest payload.
func DecodePromoteRequest(data []byte) (PromoteRequest, error) {
	r := NewReader(data)
	m := PromoteRequest{Dead: int(r.Uvarint()), Promoted: r.ids()}
	return m, r.Err()
}

// LeaveRequest instructs the receiver to drain: migrate every object
// it owns to live ranks and report the new homes.
type LeaveRequest struct {
	// Reason is recorded for diagnostics ("drain", an operator note).
	Reason string
}

// Encode serialises the request into a pooled buffer.
func (m *LeaveRequest) Encode() []byte {
	return appendString(GetBuf(), m.Reason)
}

// DecodeLeaveRequest parses a LeaveRequest payload.
func DecodeLeaveRequest(data []byte) (LeaveRequest, error) {
	r := NewReader(data)
	m := LeaveRequest{Reason: r.String()}
	return m, r.Err()
}

// Reply answers every coordination command but JOIN: MIGRATE,
// TRANSFER, PROMOTE, LEAVE, WELCOME and ADAPT, and a refusal of any of
// them for a stale view. Body: head byte (Homes 0x01, Kept 0x02, Err
// 0x04), then only the fields present, in that order; an undefined head
// bit is a decode error. An empty reply — the plain acknowledgement —
// is the head byte alone.
type Reply struct {
	// Homes are the objects the command placed: promoted on the replier
	// (PROMOTE) or drained off it (LEAVE).
	Homes []Home
	// Kept counts the objects the command left where they were: a
	// skipped migration, or a leaver's objects it could not move (a
	// nonzero Kept aborts the leave rather than strand state).
	Kept int
	Err  string
}

const (
	replyHomes = 1 << iota
	replyKept
	replyErr
)

// Encode serialises the reply into a pooled buffer.
func (m *Reply) Encode() []byte {
	var head byte
	if len(m.Homes) > 0 {
		head |= replyHomes
	}
	if m.Kept != 0 {
		head |= replyKept
	}
	if m.Err != "" {
		head |= replyErr
	}
	b := append(GetBuf(), head)
	if len(m.Homes) > 0 {
		b = appendHomes(b, m.Homes)
	}
	if m.Kept != 0 {
		b = appendUvarint(b, uint64(m.Kept))
	}
	if m.Err != "" {
		b = appendString(b, m.Err)
	}
	return b
}

// DecodeReply parses a Reply payload.
func DecodeReply(data []byte) (Reply, error) {
	r := NewReader(data)
	head := r.Byte()
	if head&^(replyHomes|replyKept|replyErr) != 0 {
		r.fail("reply head %#x has undefined bits", head)
	}
	var m Reply
	if head&replyHomes != 0 {
		m.Homes = r.homes()
	}
	if head&replyKept != 0 {
		m.Kept = int(r.Uvarint())
	}
	if head&replyErr != 0 {
		m.Err = r.String()
	}
	return m, r.Err()
}
