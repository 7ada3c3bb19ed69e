package wire

// Protocol payload bodies. The paper's NEW and DEPENDENCE messages (§5)
// and every access frame built on them share one body layout, the
// access vector (DepSeq, and DepSeqResponse for replies): a DEPENDENCE
// carries one entry, or a thread's buffered fire-and-forget calls (on
// their own or leading a synchronous entry), a DEPSEQ carries a fused
// run, and the NEW and DEPENDENCE replies are response vectors.
//
// Every Encode starts from a pooled buffer (GetBuf), so steady-state
// encoding allocates only when a message outgrows the pooled capacity.
// Whoever consumes the encoded payload last — the TCP transport after
// copying it into a connection's write batch, or the runtime's serve
// loop after decoding a delivered in-process message — hands the
// buffer back with PutBuf. Callers outside that lifecycle may simply
// drop the slice; the pool refills elsewhere.

import "slices"

// NewRequest asks an object's home node to instantiate Class with Args.
type NewRequest struct {
	Class string
	Args  []Value
}

// Encode serialises the request.
func (m *NewRequest) Encode() []byte {
	b := appendString(GetBuf(), m.Class)
	return appendValues(b, m.Args)
}

// DecodeNewRequest parses a NewRequest body.
func DecodeNewRequest(data []byte) (NewRequest, error) {
	r := NewReader(data)
	var m NewRequest
	m.Class = r.String()
	m.Args = r.Values()
	return m, r.Err()
}

// DepRequest is the paper's DEPENDENCE message: an access to object ID
// on its home node, or to a class's static part. Site names the access:
// an index into the plan's site table (rewrite.Plan.Sites), which every
// node shares, so the site also says whether the access is static (its
// ID is then 0). Async marks a fire-and-forget void call: the responder
// answers it only if it fails.
//
// Static, Kind, Member and Class are the by-name layout that preceded
// site ids: the static flag, a rewrite access kind
// (rewrite.InvokeMethodHasReturn etc.), the member key (name:desc for a
// method) and, for a static access, the class. A request with a Member
// encodes by name. The codec still round-trips it, but no runtime
// sends it and a server refuses it.
type DepRequest struct {
	ID    int64
	Async bool
	Site  int
	Args  []Value

	Static bool
	Class  string
	Kind   int
	Member string
}

// ByName reports whether the request uses the by-name layout.
func (m *DepRequest) ByName() bool { return m.Member != "" }

// Encode serialises the request as a DEPENDENCE body: a one-entry
// DepSeq vector.
func (m *DepRequest) Encode() []byte { return m.appendEntry(append(GetBuf(), 1), 0) }

// DepResponse carries an access result back, plus copy-restore contents
// for array arguments. AsyncErr answers a fire-and-forget entry that
// failed; it ends the reply vector. It is also the NEW reply, with the
// created object's id as a KInt Value, and the bare acknowledgement of
// all-async DEPENDENCE frames.
type DepResponse struct {
	Value     Value
	OutArrays []Value
	Err       string
	AsyncErr  string
	// Moved reports that the target object no longer lives on the node
	// the request was addressed to: the request was forwarded and
	// NewHome is the responder's best knowledge of the current owner.
	// The caller should redirect future accesses and invalidate any
	// proxy-side caches for the object.
	Moved   bool
	NewHome int
	// Patches are the write-barrier deliveries the responder owed the
	// requesting node for writes it made while serving the request: the
	// INVALIDATE requests it would otherwise have sent back, carried on
	// the reply's last entry instead. The requester applies them before
	// its access returns.
	Patches []InvalidateRequest
}

// Encode serialises the response as a one-entry DepSeqResponse vector.
func (m *DepResponse) Encode() []byte { return m.appendEntry(append(GetBuf(), 1)) }

// DecodeDepResponse parses a one-entry DepSeqResponse body; a vector of
// any other length is a decode error.
func DecodeDepResponse(data []byte) (DepResponse, error) {
	var m DepResponse
	err := DecodeDepResponseInto(data, &m)
	return m, err
}

// DecodeDepResponseInto is DecodeDepResponse into m, decoding the patch
// list into the capacity of m.Patches: a caller that recycles the list
// decodes without allocating it. A decode that succeeds overwrites
// every field of m.
func DecodeDepResponseInto(data []byte, m *DepResponse) error {
	r := Reader{buf: data}
	if n := r.count(); r.err == nil && n != 1 {
		r.fail("reply vector of %d entries, want 1", n)
	}
	r.responseEntry(m)
	return r.err
}

func appendInts(b []byte, vs []int) []byte {
	b = appendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendUvarint(b, uint64(v))
	}
	return b
}

func (r *Reader) ints() []int {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = int(r.Uvarint())
	}
	return out
}

// Adaptive-repartitioning frames. The coordinator (node 0) polls each
// node for an AffinityReport, feeds the observed traffic back through
// the partitioner, and executes the delta as MigrateRequest commands;
// the owning node ships the object's state in a TransferRequest.

// OwnedObject describes one migratable object a node currently owns.
type OwnedObject struct {
	ID    int64
	Class string
}

// AffinityEdge is one epoch's observed traffic from the reporting node
// to the object ID (wherever it lives): the message and payload-byte
// counts of synchronous and asynchronous dependence sends. Reads and
// Writes split the accesses by direction so the coordinator's
// replication-aware refinement can weigh read savings against the
// invalidation traffic writes would charge. Msgs counts messages only;
// Writes may exceed the write messages because it also includes the
// reporting node's own (message-free) mediated stores to objects it
// owns — each of those still drives an invalidation round.
type AffinityEdge struct {
	ID     int64
	Msgs   int64
	Bytes  int64
	Reads  int64
	Writes int64
}

// AffinityReport answers an AFFINITY poll: the node's migratable
// objects and its epoch-local traffic counters (reset by the poll).
type AffinityReport struct {
	Owned []OwnedObject
	Edges []AffinityEdge
}

// Encode serialises the report.
func (m *AffinityReport) Encode() []byte {
	b := appendUvarint(GetBuf(), uint64(len(m.Owned)))
	for i := range m.Owned {
		b = appendVarint(b, m.Owned[i].ID)
		b = appendString(b, m.Owned[i].Class)
	}
	b = appendUvarint(b, uint64(len(m.Edges)))
	for i := range m.Edges {
		b = appendVarint(b, m.Edges[i].ID)
		b = appendVarint(b, m.Edges[i].Msgs)
		b = appendVarint(b, m.Edges[i].Bytes)
		b = appendVarint(b, m.Edges[i].Reads)
		b = appendVarint(b, m.Edges[i].Writes)
	}
	return b
}

// DecodeAffinityReport parses an AffinityReport body.
func DecodeAffinityReport(data []byte) (AffinityReport, error) {
	r := NewReader(data)
	var m AffinityReport
	n := r.count()
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Owned = append(m.Owned, OwnedObject{ID: r.Varint(), Class: r.String()})
	}
	n = r.count()
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Edges = append(m.Edges, AffinityEdge{
			ID: r.Varint(), Msgs: r.Varint(), Bytes: r.Varint(),
			Reads: r.Varint(), Writes: r.Varint(),
		})
	}
	return m, r.Err()
}

// MigrateRequest asks the object's current owner to hand ID over to
// node To.
type MigrateRequest struct {
	ID int64
	To int
}

// Encode serialises the request.
func (m *MigrateRequest) Encode() []byte {
	b := appendVarint(GetBuf(), m.ID)
	return appendUvarint(b, uint64(m.To))
}

// DecodeMigrateRequest parses a MigrateRequest body.
func DecodeMigrateRequest(data []byte) (MigrateRequest, error) {
	r := NewReader(data)
	var m MigrateRequest
	m.ID = r.Varint()
	m.To = int(r.Uvarint())
	return m, r.Err()
}

// TransferRequest carries a migrating object's state to its new owner:
// the global id, the class, and the field values in slot order (object
// references travel as global refs, exactly as in dependence messages).
// Readers is the object's replica set — the ranks holding read replicas
// the new owner must invalidate on future writes — and Ver its write
// counter (a fixed two bytes), which the new owner continues from so
// that its patches order after every patch the old owner sent.
// Shipping both with the state keeps home and replica set atomic
// across the handoff.
type TransferRequest struct {
	ID      int64
	Class   string
	Fields  []Value
	Readers []int
	Ver     uint16
}

// Encode serialises the request.
func (m *TransferRequest) Encode() []byte {
	b := appendVarint(GetBuf(), m.ID)
	b = appendString(b, m.Class)
	b = appendValues(b, m.Fields)
	b = appendInts(b, m.Readers)
	return appendUint16(b, m.Ver)
}

// DecodeTransferRequest parses a TransferRequest body.
func DecodeTransferRequest(data []byte) (TransferRequest, error) {
	r := NewReader(data)
	var m TransferRequest
	m.ID = r.Varint()
	m.Class = r.String()
	m.Fields = r.Values()
	m.Readers = r.ints()
	m.Ver = r.Uint16()
	return m, r.Err()
}

// Coherence frames. Read-replication runs a pull-based
// update-or-invalidate protocol: a reader asks an object's owner for a
// replica (REPLICATE), the owner snapshots the object under its
// quiescence gate and registers the reader, and every subsequent write
// at the owner delivers a patch to each registered reader — carrying
// the written slot and value when the write stored a scalar — which
// patches or drops its replica. A reader whose request the write is
// serving gets the patch on that request's reply; every other reader
// gets it as an INVALIDATE, answered with a REPLICA-ACK before the
// write completes. Every patch and snapshot carries the owner's
// per-object write counter, so a replica can order patches that arrive
// out of order.

// ReplicateRequest asks the object's owner for a read replica of ID,
// registering the requesting node for invalidation on writes.
type ReplicateRequest struct {
	ID int64
}

// Encode serialises the request.
func (m *ReplicateRequest) Encode() []byte { return appendVarint(GetBuf(), m.ID) }

// DecodeReplicateRequest parses a ReplicateRequest body.
func DecodeReplicateRequest(data []byte) (ReplicateRequest, error) {
	r := NewReader(data)
	var m ReplicateRequest
	m.ID = r.Varint()
	return m, r.Err()
}

// ReplicateResponse carries the replica: the object's concrete class, a
// field snapshot in slot order (object references as global refs,
// exactly as in TRANSFER) and the write counter it was cut at, Ver, as
// a fixed two bytes. Denied reports that the owner declined,
// telling the reader to fall back to plain remote reads; Busy marks
// the refusal as transient (a busy access gate), so the reader must
// not cache it — structural refusals (non-replicated class, fields
// that cannot be snapshotted) are permanent. Moved redirects the
// reader to NewHome when the object migrated away from the addressed
// node.
type ReplicateResponse struct {
	Class   string
	Fields  []Value
	Ver     uint16
	Denied  bool
	Busy    bool
	Err     string
	Moved   bool
	NewHome int
}

// Encode serialises the response.
func (m *ReplicateResponse) Encode() []byte {
	b := appendString(GetBuf(), m.Class)
	b = appendValues(b, m.Fields)
	b = appendUint16(b, m.Ver)
	b = appendBool(b, m.Denied)
	b = appendBool(b, m.Busy)
	b = appendString(b, m.Err)
	b = appendBool(b, m.Moved)
	return appendUvarint(b, uint64(m.NewHome))
}

// DecodeReplicateResponse parses a ReplicateResponse body.
func DecodeReplicateResponse(data []byte) (ReplicateResponse, error) {
	r := NewReader(data)
	var m ReplicateResponse
	m.Class = r.String()
	m.Fields = r.Values()
	m.Ver = r.Uint16()
	m.Denied = r.Bool()
	m.Busy = r.Bool()
	m.Err = r.String()
	m.Moved = r.Bool()
	m.NewHome = int(r.Uvarint())
	return m, r.Err()
}

// InvalidateRequest is one patch: it tells a replica holder that field
// Slot of object ID was written when the owner's write counter reached
// Ver. An Update carries the write itself — the scalar Value stored —
// and the holder patches its replica; without it the holder drops the
// replica. Either applies only if Ver is newer than the version the
// replica holds for that slot, once the replica has widened it against
// the newest counter it has seen (serial-number order, RFC 1982). An
// INVALIDATE body is one patch, and a reply entry carries a list of
// them (DepResponse.Patches), each laid out as
//
//	tag uvarint · ID varint · Ver 2 bytes · [Value]
//
// with tag = Slot<<2 | more<<1 | update: the value is present exactly
// when the update bit is set, and the more bit says another patch
// follows. An INVALIDATE carries one patch, so its more bit is
// undefined there and a decode error.
type InvalidateRequest struct {
	ID     int64
	Ver    uint16
	Slot   int
	Update bool
	Value  Value
}

// Patch tag bits below the slot; invBits are those an INVALIDATE
// defines.
const (
	invUpdate = 1 << iota
	invMore

	invBits   = invUpdate
	patchBits = 2
)

// Encode serialises the request.
func (m *InvalidateRequest) Encode() []byte { return m.appendPatch(GetBuf(), false) }

// appendPatch encodes one patch; more marks it as not the last of a
// list.
func (m *InvalidateRequest) appendPatch(b []byte, more bool) []byte {
	tag := uint64(m.Slot) << patchBits
	if m.Update {
		tag |= invUpdate
	}
	if more {
		tag |= invMore
	}
	b = appendUvarint(b, tag)
	b = appendVarint(b, m.ID)
	b = appendUint16(b, m.Ver)
	if m.Update {
		b = m.Value.Append(b)
	}
	return b
}

// patch decodes one patch into m and reports whether another follows.
func (r *Reader) patch(m *InvalidateRequest) (more bool) {
	tag := r.Uvarint()
	m.Slot = int(tag >> patchBits)
	m.Update = tag&invUpdate != 0
	m.ID = r.Varint()
	m.Ver = r.Uint16()
	if m.Update {
		m.Value = r.Value()
	}
	return tag&invMore != 0
}

// DecodeInvalidateRequest parses an InvalidateRequest body.
func DecodeInvalidateRequest(data []byte) (InvalidateRequest, error) {
	r := Reader{buf: data}
	var m InvalidateRequest
	if r.patch(&m) && r.err == nil {
		r.fail("undefined INVALIDATE bit %#x: an INVALIDATE carries one patch", invMore)
	}
	return m, r.err
}

// ReplicaAck acknowledges an INVALIDATE once the sender has dropped or
// patched its replica. Kept reports that a replica was patched and is
// still served, so the owner keeps the sender in its reader set; a
// sender that held no replica answers Kept=false and is dropped from
// it. The writing node's request does not complete until every
// registered reader has acknowledged, which is what makes a write
// observed by the program order a barrier against stale replica reads.
//
//	head · [Err]
type ReplicaAck struct {
	Kept bool
	Err  string
}

// ReplicaAck head bits.
const (
	ackKept = 1 << iota
	ackErr

	ackBits = ackKept | ackErr
)

// Encode serialises the acknowledgement.
func (m *ReplicaAck) Encode() []byte {
	var head byte
	if m.Kept {
		head |= ackKept
	}
	if m.Err != "" {
		head |= ackErr
	}
	b := append(GetBuf(), head)
	if head&ackErr != 0 {
		b = appendString(b, m.Err)
	}
	return b
}

// DecodeReplicaAck parses a ReplicaAck body.
func DecodeReplicaAck(data []byte) (ReplicaAck, error) {
	r := Reader{buf: data}
	var m ReplicaAck
	head := r.Byte()
	if head&^ackBits != 0 {
		r.fail("undefined REPLICA-ACK bits %#x", head&^ackBits)
		return m, r.err
	}
	m.Kept = head&ackKept != 0
	if head&ackErr != 0 {
		m.Err = r.String()
	}
	return m, r.err
}

// DepSeq is the one access vector. A DEPENDENCE body is a one-entry
// DepSeq, and a DEPSEQ body carries a fused run of consecutive
// *synchronous* dependences bound for one destination: the compiler
// proves the run's intermediate results are not consumed between
// accesses, so the whole run travels as one exchange instead of
// len(Reqs) DEPENDENCE round trips. Either may open with a thread's
// buffered fire-and-forget calls (Async entries, see Lead), and a
// DEPENDENCE may carry nothing else. The responder executes entries in
// order, answers each synchronous entry and any Async entry that fails,
// and stops at the first failure, so Resps may be shorter than Reqs.
//
// The vector's entries use a presence-flags layout, as the frame
// envelope does: each entry opens with a head byte naming the optional
// fields that follow, and absent fields cost nothing. A request entry
// is
//
//	head · [ID varint] · Site uvarint · [Args]
//
// where the ID is omitted when it equals the previous entry's (0 before
// the first). With the by-name head bit set, which also defines the
// static and class bits, the site is replaced by
//
//	Kind varint · Member · [Class]
//
// A response entry is
//
//	head · Value · [OutArrays] · [Err] · [AsyncErr] · [NewHome] · [Patches]
//
// with NewHome present exactly when Moved is set, and Patches one or
// more InvalidateRequest patches chained by their more bits. An
// undefined head bit is a decode error.
type DepSeq struct {
	Reqs []DepRequest
}

// Request entry head bits.
// seqReqStatic and seqReqClass are defined only with seqReqByName.
const (
	seqReqStatic = 1 << iota
	seqReqSameID
	seqReqClass
	seqReqArgs
	seqReqAsync
	seqReqByName

	seqReqBits = seqReqStatic | seqReqSameID | seqReqClass | seqReqArgs | seqReqAsync | seqReqByName
)

// Response entry head bits; seqRespMoved also carries NewHome, and
// seqRespPatches a patch list.
const (
	seqRespOutArrays = 1 << iota
	seqRespErr
	seqRespAsyncErr
	seqRespPatches
	seqRespMoved

	seqRespBits = seqRespOutArrays | seqRespErr | seqRespAsyncErr | seqRespPatches | seqRespMoved
)

// appendEntry encodes one request entry of an access vector; prevID is
// the previous entry's ID (0 for the first).
func (m *DepRequest) appendEntry(b []byte, prevID int64) []byte {
	var head byte
	if m.ID == prevID {
		head |= seqReqSameID
	}
	byName := m.ByName()
	if byName {
		head |= seqReqByName
		if m.Static {
			head |= seqReqStatic
		}
		if m.Class != "" {
			head |= seqReqClass
		}
	}
	if len(m.Args) > 0 {
		head |= seqReqArgs
	}
	if m.Async {
		head |= seqReqAsync
	}
	b = append(b, head)
	if head&seqReqSameID == 0 {
		b = appendVarint(b, m.ID)
	}
	if byName {
		b = appendVarint(b, int64(m.Kind))
		b = appendString(b, m.Member)
		if head&seqReqClass != 0 {
			b = appendString(b, m.Class)
		}
	} else {
		b = appendUvarint(b, uint64(m.Site))
	}
	if head&seqReqArgs != 0 {
		b = appendValues(b, m.Args)
	}
	return b
}

func (r *Reader) requestEntry(m *DepRequest, prevID int64) {
	head := r.Byte()
	undef := head &^ seqReqBits
	if head&seqReqByName == 0 {
		undef |= head & (seqReqStatic | seqReqClass)
	}
	if undef != 0 {
		r.fail("undefined DEPSEQ request bits %#x", undef)
		return
	}
	*m = DepRequest{ID: prevID, Static: head&seqReqStatic != 0, Async: head&seqReqAsync != 0}
	if head&seqReqSameID == 0 {
		m.ID = r.Varint()
	}
	if head&seqReqByName != 0 {
		m.Kind = int(r.Varint())
		m.Member = r.Sym()
		if head&seqReqClass != 0 {
			m.Class = r.Sym()
		}
	} else {
		m.Site = int(r.Uvarint())
	}
	if head&seqReqArgs != 0 {
		m.Args = r.Values()
	}
}

// appendEntry encodes one response entry of a reply vector.
func (m *DepResponse) appendEntry(b []byte) []byte {
	var head byte
	if len(m.OutArrays) > 0 {
		head |= seqRespOutArrays
	}
	if m.Err != "" {
		head |= seqRespErr
	}
	if m.AsyncErr != "" {
		head |= seqRespAsyncErr
	}
	if m.Moved {
		head |= seqRespMoved
	}
	if len(m.Patches) > 0 {
		head |= seqRespPatches
	}
	b = append(b, head)
	b = m.Value.Append(b)
	if head&seqRespOutArrays != 0 {
		b = appendValues(b, m.OutArrays)
	}
	if head&seqRespErr != 0 {
		b = appendString(b, m.Err)
	}
	if head&seqRespAsyncErr != 0 {
		b = appendString(b, m.AsyncErr)
	}
	if head&seqRespMoved != 0 {
		b = appendUvarint(b, uint64(m.NewHome))
	}
	for i := range m.Patches {
		b = m.Patches[i].appendPatch(b, i < len(m.Patches)-1)
	}
	return b
}

func (r *Reader) responseEntry(m *DepResponse) {
	head := r.Byte()
	if head&^seqRespBits != 0 {
		r.fail("undefined DEPSEQ response bits %#x", head&^seqRespBits)
		return
	}
	ps := m.Patches[:0]
	*m = DepResponse{Value: r.Value(), Moved: head&seqRespMoved != 0}
	if head&seqRespOutArrays != 0 {
		m.OutArrays = r.Values()
	}
	if head&seqRespErr != 0 {
		m.Err = r.String()
	}
	if head&seqRespAsyncErr != 0 {
		m.AsyncErr = r.String()
	}
	if m.Moved {
		m.NewHome = int(r.Uvarint())
	}
	for more := head&seqRespPatches != 0; more && r.err == nil; {
		ps = append(ps, InvalidateRequest{})
		more = r.patch(&ps[len(ps)-1])
	}
	m.Patches = ps
}

// Encode serialises the sequence.
func (m *DepSeq) Encode() []byte {
	b := appendUvarint(GetBuf(), uint64(len(m.Reqs)))
	var prev int64
	for i := range m.Reqs {
		b = m.Reqs[i].appendEntry(b, prev)
		prev = m.Reqs[i].ID
	}
	return b
}

// Lead splices lead's entries in ahead of body, an encoded access
// vector, and returns the joined vector in a fresh pooled buffer; body
// goes back to the pool. Only body's first entry can change: one that
// elided ID 0 (as a static access or a first entry does) spells it out
// once the lead ends on a nonzero ID.
func Lead(lead []DepRequest, body []byte) []byte {
	r := Reader{buf: body}
	n := r.count()
	b := appendUvarint(GetBuf(), uint64(len(lead)+n))
	var prev int64
	for i := range lead {
		b = lead[i].appendEntry(b, prev)
		prev = lead[i].ID
	}
	rest := body[r.off:]
	if n > 0 && prev != 0 && rest[0]&seqReqSameID != 0 {
		b = appendVarint(append(b, rest[0]&^seqReqSameID), 0)
		rest = rest[1:]
	}
	b = append(b, rest...)
	PutBuf(body)
	return b
}

// DecodeDepSeq parses a DepSeq body.
func DecodeDepSeq(data []byte) (DepSeq, error) {
	var m DepSeq
	err := DecodeDepSeqInto(data, &m)
	return m, err
}

// DecodeDepSeqInto parses a DepSeq body into m, reusing the capacity of
// m.Reqs: a caller that recycles m decodes without allocating the
// vector. Every entry is overwritten, so recycled contents are never
// observable.
func DecodeDepSeqInto(data []byte, m *DepSeq) error {
	r := Reader{buf: data}
	n := r.count()
	m.Reqs = slices.Grow(m.Reqs[:0], n)[:n]
	var prev int64
	for i := 0; i < n && r.err == nil; i++ {
		r.requestEntry(&m.Reqs[i], prev)
		prev = m.Reqs[i].ID
	}
	return r.err
}

// DepSeqResponse answers a DepSeq with one DepResponse per executed
// entry, in request order. A short vector means the responder stopped
// at the first entry whose Err is set; entries past it never ran.
// Per-entry Moved/NewHome redirects apply to that entry alone — the
// caller re-aims just the affected remainder.
type DepSeqResponse struct {
	Resps []DepResponse
}

// Encode serialises the response vector.
func (m *DepSeqResponse) Encode() []byte {
	b := appendUvarint(GetBuf(), uint64(len(m.Resps)))
	for i := range m.Resps {
		b = m.Resps[i].appendEntry(b)
	}
	return b
}

// DecodeDepSeqResponseInto parses a DepSeqResponse body into m, reusing
// the capacity of m.Resps as DecodeDepSeqInto does.
func DecodeDepSeqResponseInto(data []byte, m *DepSeqResponse) error {
	r := Reader{buf: data}
	n := r.count()
	m.Resps = slices.Grow(m.Resps[:0], n)[:n]
	for i := 0; i < n && r.err == nil; i++ {
		r.responseEntry(&m.Resps[i])
	}
	return r.err
}
