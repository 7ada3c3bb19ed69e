package wire

// Protocol payload bodies. These are the paper's NEW and DEPENDENCE
// messages (§5) plus their responses and the batched form that carries
// aggregated asynchronous dependence messages in one transport frame.
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

// NewResponse returns the created object's identity. OutArrays carries
// the post-constructor contents of array arguments (copy-restore
// semantics). AsyncErr surfaces a deferred asynchronous-call failure
// stashed on the responding node (see runtime).
type NewResponse struct {
	ID        int64
	OutArrays []Value
	Err       string
	AsyncErr  string
	// AsyncDests lists nodes the responder flushed fire-and-forget
	// batches to while serving this request; the caller inherits
	// responsibility for barriering them (see runtime).
	AsyncDests []int
}

// Encode serialises the response.
func (m *NewResponse) Encode() []byte {
	b := appendVarint(GetBuf(), m.ID)
	b = appendValues(b, m.OutArrays)
	b = appendString(b, m.Err)
	b = appendString(b, m.AsyncErr)
	return appendInts(b, m.AsyncDests)
}

// DecodeNewResponse parses a NewResponse body.
func DecodeNewResponse(data []byte) (NewResponse, error) {
	r := NewReader(data)
	var m NewResponse
	m.ID = r.Varint()
	m.OutArrays = r.Values()
	m.Err = r.String()
	m.AsyncErr = r.String()
	m.AsyncDests = r.ints()
	return m, r.Err()
}

// DepRequest is the paper's DEPENDENCE message: an access to object ID
// on its home node (or to a class's static part when Static is set).
// Kind is a rewrite access kind (rewrite.InvokeMethodHasReturn etc.).
type DepRequest struct {
	ID     int64
	Static bool
	Class  string
	Kind   int
	Member string
	Args   []Value
}

func (m *DepRequest) append(b []byte) []byte {
	b = appendVarint(b, m.ID)
	b = appendBool(b, m.Static)
	b = appendString(b, m.Class)
	b = appendVarint(b, int64(m.Kind))
	b = appendString(b, m.Member)
	return appendValues(b, m.Args)
}

// Encode serialises the request.
func (m *DepRequest) Encode() []byte { return m.append(GetBuf()) }

func (r *Reader) depRequest() DepRequest {
	var m DepRequest
	m.ID = r.Varint()
	m.Static = r.Bool()
	m.Class = r.Sym()
	m.Kind = int(r.Varint())
	m.Member = r.Sym()
	m.Args = r.Values()
	return m
}

// DecodeDepRequest parses a DepRequest body.
func DecodeDepRequest(data []byte) (DepRequest, error) {
	r := NewReader(data)
	m := r.depRequest()
	return m, r.Err()
}

// DepResponse carries an access result back, plus copy-restore contents
// for array arguments and any deferred asynchronous-call failure.
type DepResponse struct {
	Value     Value
	OutArrays []Value
	Err       string
	AsyncErr  string
	// AsyncDests: see NewResponse.AsyncDests.
	AsyncDests []int
	// Moved reports that the target object no longer lives on the node
	// the request was addressed to: the request was forwarded and
	// NewHome is the responder's best knowledge of the current owner.
	// The caller should redirect future accesses and invalidate any
	// proxy-side caches for the object.
	Moved   bool
	NewHome int
}

func (m *DepResponse) append(b []byte) []byte {
	b = m.Value.Append(b)
	b = appendValues(b, m.OutArrays)
	b = appendString(b, m.Err)
	b = appendString(b, m.AsyncErr)
	b = appendInts(b, m.AsyncDests)
	b = appendBool(b, m.Moved)
	return appendUvarint(b, uint64(m.NewHome))
}

// Encode serialises the response.
func (m *DepResponse) Encode() []byte { return m.append(GetBuf()) }

func (r *Reader) depResponse() DepResponse {
	var m DepResponse
	m.Value = r.Value()
	m.OutArrays = r.Values()
	m.Err = r.String()
	m.AsyncErr = r.String()
	m.AsyncDests = r.ints()
	m.Moved = r.Bool()
	m.NewHome = int(r.Uvarint())
	return m
}

// DecodeDepResponse parses a DepResponse body.
func DecodeDepResponse(data []byte) (DepResponse, error) {
	r := NewReader(data)
	m := r.depResponse()
	return m, r.Err()
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

// MigrateResponse reports the outcome of a migration command. Moved is
// false when the owner declined (object busy, non-migratable, or
// already gone) — a skip, not an error.
type MigrateResponse struct {
	Moved bool
	Err   string
}

// Encode serialises the response.
func (m *MigrateResponse) Encode() []byte {
	b := appendBool(GetBuf(), m.Moved)
	return appendString(b, m.Err)
}

// DecodeMigrateResponse parses a MigrateResponse body.
func DecodeMigrateResponse(data []byte) (MigrateResponse, error) {
	r := NewReader(data)
	var m MigrateResponse
	m.Moved = r.Bool()
	m.Err = r.String()
	return m, r.Err()
}

// TransferRequest carries a migrating object's state to its new owner:
// the global id, the class, and the field values in slot order (object
// references travel as global refs, exactly as in dependence messages).
// Readers is the object's replica set — the ranks holding read replicas
// the new owner must invalidate on future writes; shipping it with the
// state keeps home and replica set atomic across the handoff.
type TransferRequest struct {
	ID      int64
	Class   string
	Fields  []Value
	Readers []int
}

// Encode serialises the request.
func (m *TransferRequest) Encode() []byte {
	b := appendVarint(GetBuf(), m.ID)
	b = appendString(b, m.Class)
	b = appendValues(b, m.Fields)
	return appendInts(b, m.Readers)
}

// DecodeTransferRequest parses a TransferRequest body.
func DecodeTransferRequest(data []byte) (TransferRequest, error) {
	r := NewReader(data)
	var m TransferRequest
	m.ID = r.Varint()
	m.Class = r.String()
	m.Fields = r.Values()
	m.Readers = r.ints()
	return m, r.Err()
}

// TransferResponse acknowledges an installed transfer.
type TransferResponse struct {
	Err string
}

// Encode serialises the response.
func (m *TransferResponse) Encode() []byte { return appendString(GetBuf(), m.Err) }

// DecodeTransferResponse parses a TransferResponse body.
func DecodeTransferResponse(data []byte) (TransferResponse, error) {
	r := NewReader(data)
	var m TransferResponse
	m.Err = r.String()
	return m, r.Err()
}

// Coherence frames. Read-replication runs a pull-based
// invalidate-on-write protocol: a reader asks an object's owner for a
// replica (REPLICATE), the owner snapshots the object under its
// quiescence gate and registers the reader, and every subsequent write
// at the owner pushes an INVALIDATE to each registered reader, which
// drops its replica and answers with a REPLICA-ACK before the write
// completes.

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

// ReplicateResponse carries the replica: the object's concrete class
// and a field snapshot in slot order (object references as global refs,
// exactly as in TRANSFER). Denied reports that the owner declined,
// telling the reader to fall back to plain remote reads; Busy marks
// the refusal as transient (a busy access gate), so the reader must
// not cache it — structural refusals (non-replicated class, fields
// that cannot be snapshotted) are permanent. Moved redirects the
// reader to NewHome when the object migrated away from the addressed
// node.
type ReplicateResponse struct {
	Class   string
	Fields  []Value
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
	m.Denied = r.Bool()
	m.Busy = r.Bool()
	m.Err = r.String()
	m.Moved = r.Bool()
	m.NewHome = int(r.Uvarint())
	return m, r.Err()
}

// InvalidateRequest tells a replica holder that object ID was written:
// the replica must be dropped before the acknowledgement is sent.
type InvalidateRequest struct {
	ID int64
}

// Encode serialises the request.
func (m *InvalidateRequest) Encode() []byte { return appendVarint(GetBuf(), m.ID) }

// DecodeInvalidateRequest parses an InvalidateRequest body.
func DecodeInvalidateRequest(data []byte) (InvalidateRequest, error) {
	r := NewReader(data)
	var m InvalidateRequest
	m.ID = r.Varint()
	return m, r.Err()
}

// ReplicaAck acknowledges an INVALIDATE: the sender no longer serves
// reads of the object from a replica. The writing node's request does
// not complete until every registered reader has acknowledged, which is
// what makes a write observed by the program order a barrier against
// stale replica reads.
type ReplicaAck struct {
	Err string
}

// Encode serialises the acknowledgement.
func (m *ReplicaAck) Encode() []byte { return appendString(GetBuf(), m.Err) }

// DecodeReplicaAck parses a ReplicaAck body.
func DecodeReplicaAck(data []byte) (ReplicaAck, error) {
	r := NewReader(data)
	var m ReplicaAck
	m.Err = r.String()
	return m, r.Err()
}

// Batch aggregates consecutive asynchronous dependence messages bound
// for one destination into a single transport frame. Ack requests a
// completion response (used on transports without causal delivery,
// where the sender must await processing before its next synchronous
// exchange).
type Batch struct {
	Ack  bool
	Reqs []DepRequest
}

// Encode serialises the batch.
func (m *Batch) Encode() []byte {
	b := appendBool(GetBuf(), m.Ack)
	b = appendUvarint(b, uint64(len(m.Reqs)))
	for i := range m.Reqs {
		b = m.Reqs[i].append(b)
	}
	return b
}

// DecodeBatch parses a Batch body.
func DecodeBatch(data []byte) (Batch, error) {
	r := NewReader(data)
	var m Batch
	m.Ack = r.Bool()
	n := r.count()
	if r.Err() != nil {
		return m, r.Err()
	}
	m.Reqs = make([]DepRequest, n)
	for i := 0; i < n; i++ {
		m.Reqs[i] = r.depRequest()
		if r.Err() != nil {
			return m, r.Err()
		}
	}
	return m, r.Err()
}

// DepSeq is the fused form of consecutive *synchronous* dependence
// messages bound for one destination: the compiler proves the run's
// intermediate results are not consumed between accesses, so the whole
// run travels as one DEPSEQ exchange instead of len(Reqs) DEPENDENCE
// round trips. Unlike Batch (fire-and-forget void calls), every entry
// produces a response; the responder executes entries in order and
// stops at the first failure, so Resps in the reply may be shorter
// than Reqs.
//
// The vector's entries use a presence-flags layout, as the frame
// envelope does: each entry opens with a head byte naming the optional
// fields that follow, and absent fields cost nothing. A request entry
// is
//
//	head · [ID varint] · Kind varint · Member · [Class] · [Args]
//
// where the ID is omitted when it equals the previous entry's (0 before
// the first), and a response entry is
//
//	head · Value · [OutArrays] · [Err] · [AsyncErr] · [AsyncDests] · [NewHome]
//
// with NewHome present exactly when Moved is set. An undefined head bit
// is a decode error. The scalar DEPENDENCE and DEPENDENCE_BATCH bodies
// keep their fixed layouts.
type DepSeq struct {
	Reqs []DepRequest
}

// Request entry head bits.
const (
	seqReqStatic = 1 << iota
	seqReqSameID
	seqReqClass
	seqReqArgs

	seqReqBits = seqReqStatic | seqReqSameID | seqReqClass | seqReqArgs
)

// Response entry head bits; seqRespMoved also carries NewHome.
const (
	seqRespOutArrays = 1 << iota
	seqRespErr
	seqRespAsyncErr
	seqRespAsyncDests
	seqRespMoved

	seqRespBits = seqRespOutArrays | seqRespErr | seqRespAsyncErr | seqRespAsyncDests | seqRespMoved
)

// appendSeq encodes one request entry of a DEPSEQ vector; prevID is
// the previous entry's ID (0 for the first).
func (m *DepRequest) appendSeq(b []byte, prevID int64) []byte {
	var head byte
	if m.Static {
		head |= seqReqStatic
	}
	if m.ID == prevID {
		head |= seqReqSameID
	}
	if m.Class != "" {
		head |= seqReqClass
	}
	if len(m.Args) > 0 {
		head |= seqReqArgs
	}
	b = append(b, head)
	if head&seqReqSameID == 0 {
		b = appendVarint(b, m.ID)
	}
	b = appendVarint(b, int64(m.Kind))
	b = appendString(b, m.Member)
	if head&seqReqClass != 0 {
		b = appendString(b, m.Class)
	}
	if head&seqReqArgs != 0 {
		b = appendValues(b, m.Args)
	}
	return b
}

func (r *Reader) seqRequest(m *DepRequest, prevID int64) {
	head := r.Byte()
	if head&^seqReqBits != 0 {
		r.fail("undefined DEPSEQ request bits %#x", head&^seqReqBits)
		return
	}
	*m = DepRequest{ID: prevID, Static: head&seqReqStatic != 0}
	if head&seqReqSameID == 0 {
		m.ID = r.Varint()
	}
	m.Kind = int(r.Varint())
	m.Member = r.Sym()
	if head&seqReqClass != 0 {
		m.Class = r.Sym()
	}
	if head&seqReqArgs != 0 {
		m.Args = r.Values()
	}
}

// appendSeq encodes one response entry of a DEPSEQ vector.
func (m *DepResponse) appendSeq(b []byte) []byte {
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
	if len(m.AsyncDests) > 0 {
		head |= seqRespAsyncDests
	}
	if m.Moved {
		head |= seqRespMoved
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
	if head&seqRespAsyncDests != 0 {
		b = appendInts(b, m.AsyncDests)
	}
	if head&seqRespMoved != 0 {
		b = appendUvarint(b, uint64(m.NewHome))
	}
	return b
}

func (r *Reader) seqResponse(m *DepResponse) {
	head := r.Byte()
	if head&^seqRespBits != 0 {
		r.fail("undefined DEPSEQ response bits %#x", head&^seqRespBits)
		return
	}
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
	if head&seqRespAsyncDests != 0 {
		m.AsyncDests = r.ints()
	}
	if m.Moved {
		m.NewHome = int(r.Uvarint())
	}
}

// Encode serialises the sequence.
func (m *DepSeq) Encode() []byte {
	b := appendUvarint(GetBuf(), uint64(len(m.Reqs)))
	var prev int64
	for i := range m.Reqs {
		b = m.Reqs[i].appendSeq(b, prev)
		prev = m.Reqs[i].ID
	}
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
		r.seqRequest(&m.Reqs[i], prev)
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
		b = m.Resps[i].appendSeq(b)
	}
	return b
}

// DecodeDepSeqResponse parses a DepSeqResponse body.
func DecodeDepSeqResponse(data []byte) (DepSeqResponse, error) {
	var m DepSeqResponse
	err := DecodeDepSeqResponseInto(data, &m)
	return m, err
}

// DecodeDepSeqResponseInto is DecodeDepSeqInto for the response vector.
func DecodeDepSeqResponseInto(data []byte, m *DepSeqResponse) error {
	r := Reader{buf: data}
	n := r.count()
	m.Resps = slices.Grow(m.Resps[:0], n)[:n]
	for i := 0; i < n && r.err == nil; i++ {
		r.seqResponse(&m.Resps[i])
	}
	return r.err
}
