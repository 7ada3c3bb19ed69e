package runtime

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"autodist/internal/vm"
	"autodist/internal/wire"
)

// This file holds everything a node knows about an object, keyed by its
// global id (each VM allocates ids congruent to its rank, see
// vm.SetObjectIDSpace): one objState record per id, in a table of
// 1<<objShardBits shards of one mutex and one map each. Every protocol
// event that touches an object — export, proxy intern, a Moved notice,
// the two halves of a migration, promotion, gate entry and exit, freeze
// and thaw, a cached read, a replica install, patch or drop, a
// reader-set change, an affinity charge — is one method below that takes
// the object's shard lock once, does no I/O and takes no other lock. The
// protocol code sends the messages around them.

// objShardBits sets the table's shard count: well above the number of
// logical threads a node runs at once, so accesses to different objects
// rarely meet on a lock.
const objShardBits = 6

// objTable is one node's object records.
type objTable struct {
	self int
	// moves is false under a static plan (neither adaptation nor failure
	// recovery): objects never change owner, so a proxy names its
	// permanent home and route answers for it without a lookup.
	moves bool
	// done is the node's shutdown channel; gate and freeze waits give up
	// on it.
	done <-chan struct{}
	// epoch points at the cluster's invocation counter (nil outside a
	// cluster). Cached reads and replicas are stamped with the epoch they
	// were filled in, so a hit can tell whether it is served from state
	// learned in an earlier entrypoint invocation — the cross-invocation
	// retention the deployment lifecycle promises.
	epoch  *int64
	shards [1 << objShardBits]objShard
}

type objShard struct {
	mu sync.Mutex
	m  map[int64]*objState
	// spare is the last record deleted, reused by the next one created:
	// an object that never leaves this node has a record only while an
	// access holds its gate, and that access then allocates nothing.
	spare *objState
	// once caches write-once field reads, id → *onceSet. A write can
	// never invalidate them (the facts pass proved there are no
	// writes); only a home move discards them, conservatively, with
	// everything else (dropCopies). cachedOnce reads it without mu;
	// storeOnce and dropCopies change it under mu, one key at a time,
	// and never write a set once stored.
	once onceIndex
}

// onceIndex maps object ids to their write-once entries: reads take no
// lock, writes hold the shard lock. It is an open-addressed table of
// atomic slots, at most three quarters used. A slot that holds an id
// keeps it for the table's life — a drop clears only its set — so a
// reader's linear probe never passes the slot of the id it looks for.
// When an insert would pass three quarters, the writer publishes a
// fresh table of the live slots; a reader still on the old table sees
// it as it was when it was replaced, as a Load concurrent with a
// Delete may. Fill and drop cost O(1), amortised over the copies.
type onceIndex struct {
	tab  atomic.Pointer[onceTable]
	used int // slots holding an id, dropped ones included (writer only)
}

type onceTable struct{ slots []onceSlot }

type onceSlot struct {
	id  atomic.Int64 // 0: empty; no object has id 0
	set atomic.Pointer[onceSet]
}

// find returns the slot holding id, or the empty slot that ends its
// probe sequence; nil when x has no table yet. Its hash takes other
// bits of the product than objTable.shard does.
func (x *onceIndex) find(id int64) *onceSlot {
	tab := x.tab.Load()
	if tab == nil {
		return nil
	}
	mask := uint64(len(tab.slots) - 1)
	for i := uint64(id) * 0x9E3779B97F4A7C15 >> 32; ; i++ {
		sl := &tab.slots[i&mask]
		if k := sl.id.Load(); k == id || k == 0 {
			return sl
		}
	}
}

// load returns id's entries, nil when it has none.
func (x *onceIndex) load(id int64) *onceSet {
	if sl := x.find(id); sl != nil && sl.id.Load() == id {
		return sl.set.Load()
	}
	return nil
}

// store publishes id's entries. Callers hold the shard lock.
func (x *onceIndex) store(id int64, set *onceSet) {
	sl := x.find(id)
	if sl != nil && sl.id.Load() == id {
		sl.set.Store(set)
		return
	}
	if sl == nil || (x.used+1)*4 > len(x.tab.Load().slots)*3 {
		x.rebuild()
		sl = x.find(id)
	}
	// The set first: a reader that sees the id sees its set.
	sl.set.Store(set)
	sl.id.Store(id)
	x.used++
}

// drop withdraws id's entries. Callers hold the shard lock.
func (x *onceIndex) drop(id int64) {
	if sl := x.find(id); sl != nil && sl.id.Load() == id {
		sl.set.Store(nil)
	}
}

// rebuild publishes a table of the live slots with room for as many
// inserts again as live slots before the next rebuild.
func (x *onceIndex) rebuild() {
	var live []*onceSlot
	if old := x.tab.Load(); old != nil {
		for i := range old.slots {
			if old.slots[i].set.Load() != nil {
				live = append(live, &old.slots[i])
			}
		}
	}
	n := 8
	for n < 4*(len(live)+1) {
		n *= 2
	}
	next := &onceIndex{}
	next.tab.Store(&onceTable{slots: make([]onceSlot, n)})
	for _, sl := range live {
		next.store(sl.id.Load(), sl.set.Load())
	}
	x.used = next.used
	x.tab.Store(next.tab.Load())
}

// onceSet is one object's write-once cache entries, immutable once
// published: a few fields at most, so a linear scan beats a map.
type onceSet []onceEntry

// onceEntry is one cached field value, by field slot, and the
// invocation epoch it was filled in.
type onceEntry struct {
	slot  int
	v     vm.Value
	epoch int64
}

// lookup returns the entry for a field slot.
func (o onceSet) lookup(slot int) (onceEntry, bool) {
	for _, e := range o {
		if e.slot == slot {
			return e, true
		}
	}
	return onceEntry{}, false
}

// with returns a copy of o with the entry's slot set.
func (o onceSet) with(e onceEntry) onceSet {
	out := make(onceSet, 0, len(o)+1)
	for _, x := range o {
		if x.slot != e.slot {
			out = append(out, x)
		}
	}
	return append(out, e)
}

// objState is one object's record on this node.
type objState struct {
	// canon is the unique heap object representing the id here: a real
	// instance if the object was born here (or migrated in with no proxy
	// on the heap), a DependentObject proxy otherwise. Interning through
	// canon preserves reference equality across migrations.
	canon *vm.Object
	// home is the authoritative state-holder while this node owns the
	// object. Behind a proxy canon it is a hidden backing instance, never
	// leaked to the program heap (see Node.canonicalize).
	home *vm.Object

	// hint is the best-known owner while this node does not hold the
	// object: seeded from the birth placement when a proxy is interned,
	// refreshed by Moved notices, and doubling as the forwarding pointer
	// a previous owner relays stale requests through. An owner holds no
	// valid hint.
	hint      int
	hintValid bool

	// replica is the installed field-snapshot shadow, nil when no valid
	// replica is held. It is never written in place — other threads may
	// be serving reads from it — so a patch installs a modified copy.
	// vers holds, per field slot, the owner's write counter as of the
	// value the replica holds there, and mark the newest counter the
	// replica has seen, both widened to 64 bits (see widen; nil and 0
	// with the replica): a patch applies only if it is newer than its
	// slot's version, so patches that arrive out of order leave the
	// newest write in every slot. gen counts invalidation events
	// (patches, applied or not, and home moves); an install racing one
	// is discarded by comparing gen. replicaEpoch records the invocation
	// epoch of the install.
	replica      *vm.Object
	vers         []uint64
	mark         uint64
	gen          uint64
	replicaEpoch int64

	// denied records an owner's refusal to replicate the object, so the
	// reader stops asking and uses plain remote reads.
	denied bool

	// readers is the owner-side replica set, sorted: ranks that installed
	// a replica and must be patched or invalidated before any write
	// completes. ver is the owner's write counter: every write with a
	// reader to tell advances it, and every patch and snapshot carries
	// it. Both travel with ownership on migration.
	readers []int
	ver     uint16
	// dropTid, when not 0, marks reader dropRank dropping: a reply of
	// thread dropTid carried it the drop of its replica. Other threads'
	// writes still tell it (and clear the mark), dropTid's own skip it,
	// and dropTid's retire takes it out of the set (settleDrop).
	dropTid  uint64
	dropRank int

	// The access gate. One logical thread holds the object at a time
	// (reentrant: the holder may nest accesses, including through remote
	// call-backs, which carry its id); others wait for idle, which is
	// closed when depth drops to zero. frozen, when non-nil, blocks every
	// access while a migration or replica snapshot is in progress; a
	// freeze is installed only when depth is zero.
	owner  uint64
	depth  int
	frozen chan struct{}
	idle   chan struct{}

	// aff is this epoch's traffic from this node towards the object.
	aff affinityCell
}

// affinityCell accumulates one epoch's traffic towards one object,
// split into read and write messages so the coordinator's
// replication-aware refinement can price invalidations (msgs = reads +
// writes). localWrites additionally counts this node's own mediated
// stores to objects it owns — they send no messages (and so never enter
// the migration traffic totals), but each one drives an invalidation
// round, so the replication planner must see the true write rate.
type affinityCell struct {
	reads       int64
	writes      int64
	bytes       int64
	localWrites int64
}

// shard returns id's shard, unlocked.
func (t *objTable) shard(id int64) *objShard {
	return &t.shards[uint64(id)*0x9E3779B97F4A7C15>>(64-objShardBits)]
}

// lock locks and returns id's shard.
func (t *objTable) lock(id int64) *objShard {
	sh := t.shard(id)
	sh.mu.Lock()
	return sh
}

// ent returns id's record, creating it. Callers hold the shard lock.
func (sh *objShard) ent(id int64) *objState {
	s := sh.m[id]
	if s == nil {
		if s, sh.spare = sh.spare, nil; s == nil {
			s = new(objState)
		}
		if sh.m == nil {
			sh.m = map[int64]*objState{}
		}
		sh.m[id] = s
	}
	return s
}

// release deletes id's record if it holds nothing, keeping it as the
// shard's spare. Callers hold the shard lock; no pointer to a record
// outlives it, so a deleted record is safe to reuse at once.
func (sh *objShard) release(id int64, s *objState) {
	if s.vacant() {
		delete(sh.m, id)
		*s = objState{}
		sh.spare = s
	}
}

// vacant reports whether the record holds nothing but an idle gate.
func (s *objState) vacant() bool {
	return s.canon == nil && s.home == nil && !s.hintValid && s.replica == nil &&
		s.gen == 0 && !s.denied && len(s.readers) == 0 && s.ver == 0 &&
		s.depth == 0 && s.frozen == nil && s.idle == nil && s.aff == (affinityCell{})
}

// scan calls fn on every record, holding one shard lock at a time, so fn
// must do no I/O and take no other lock. Records fn leaves vacant are
// deleted.
func (t *objTable) scan(fn func(id int64, s *objState)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			fn(id, s)
			sh.release(id, s)
		}
		sh.mu.Unlock()
	}
}

// curEpoch reads the cluster's current invocation epoch (0 when the node
// is not part of an invocation-counting cluster).
func (t *objTable) curEpoch() int64 {
	if t.epoch == nil {
		return 0
	}
	return atomic.LoadInt64(t.epoch)
}

// route is the node's one here-or-where decision for an object reached
// through a reference: h is the local state-holder when this node holds
// the object (home is then this node); otherwise home is the rank an
// access should go to — the hint, else birth, the rank the reference
// names. real is the referenced instance when the reference is not a
// proxy: an instance this node never exported is private to it and
// trivially owned. A dangling reference comes back as (nil, self).
//
// With a non-nil lt, an object found here also has its gate entered for
// that logical thread in the same section, so no migration can move it
// in between; route then blocks while another thread holds the gate or a
// snapshot has it frozen, and decides again after every wait. ok is
// false only when the node shut down during such a wait.
func (t *objTable) route(lt *lthread, id int64, birth int, real *vm.Object) (h *vm.Object, home int, ok bool) {
	if real == nil && !t.moves && birth != t.self {
		return nil, birth, true
	}
	for {
		sh := t.lock(id)
		s := sh.m[id]
		switch {
		case s != nil && s.home != nil:
			h, home = s.home, t.self
		case real != nil && (s == nil || s.canon == nil):
			h, home = real, t.self
		case s != nil && s.hintValid:
			h, home = nil, s.hint
		default:
			h, home = nil, birth
		}
		if h == nil || lt == nil {
			sh.mu.Unlock()
			return h, home, true
		}
		if s == nil {
			s = sh.ent(id)
		}
		var wait chan struct{}
		switch {
		case s.depth > 0 && s.owner == lt.tid:
			s.depth++
		case s.frozen != nil:
			wait = s.frozen
		case s.depth > 0:
			if s.idle == nil {
				s.idle = make(chan struct{})
			}
			wait = s.idle
		default:
			s.owner, s.depth = lt.tid, 1
		}
		sh.mu.Unlock()
		if wait == nil {
			return h, home, true
		}
		select {
		case <-wait:
		case <-t.done:
			return nil, home, false
		}
	}
}

// exit ends an access whose gate route entered.
func (t *objTable) exit(id int64) {
	sh := t.lock(id)
	if s := sh.m[id]; s != nil && s.depth > 0 {
		s.depth--
		if s.depth == 0 {
			if s.idle != nil {
				close(s.idle)
				s.idle = nil
			}
			sh.release(id, s)
		}
	}
	sh.mu.Unlock()
}

// migrateFreezeTimeout bounds how long a snapshot waits for in-flight
// accesses to drain before skipping the object.
const migrateFreezeTimeout = 10 * time.Millisecond

// freeze waits (bounded) for in-flight accesses to id to drain, then
// blocks new ones until thaw, and returns the state-holder as of the
// freeze — ownership cannot change while frozen. ok is false if the
// object stayed busy or another snapshot holds it: the snapshot is
// skipped, never forced.
func (t *objTable) freeze(id int64) (h *vm.Object, ok bool) {
	deadline := time.Now().Add(migrateFreezeTimeout)
	for {
		sh := t.lock(id)
		s := sh.ent(id)
		if s.frozen != nil {
			sh.mu.Unlock()
			return nil, false
		}
		if s.depth == 0 {
			s.frozen = make(chan struct{})
			h = s.home
			sh.mu.Unlock()
			return h, true
		}
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		idle := s.idle
		sh.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, false
		}
		timer := time.NewTimer(wait)
		select {
		case <-idle:
			timer.Stop()
		case <-timer.C:
			return nil, false
		case <-t.done:
			timer.Stop()
			return nil, false
		}
	}
}

// thaw lifts a freeze installed by freeze.
func (t *objTable) thaw(id int64) {
	sh := t.lock(id)
	if s := sh.m[id]; s != nil && s.frozen != nil {
		close(s.frozen)
		s.frozen = nil
		sh.release(id, s)
	}
	sh.mu.Unlock()
}

// holder returns the state-holder of id if this node owns it.
func (t *objTable) holder(id int64) *vm.Object {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	if s := sh.m[id]; s != nil {
		return s.home
	}
	return nil
}

// canonOf returns id's canonical heap object on this node, if any.
func (t *objTable) canonOf(id int64) *vm.Object {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	if s := sh.m[id]; s != nil {
		return s.canon
	}
	return nil
}

// export publishes a real instance so other nodes can refer to it by
// id. The instance becomes (or stays) the canonical rep, and ownership
// is claimed unless the object migrated away — a hint on a real
// instance records exactly that, and handoff sets it in the same step
// that drops home, so export never sees "no hint, no home" mid-handoff.
func (t *objTable) export(o *vm.Object) {
	sh := t.lock(o.ID)
	s := sh.ent(o.ID)
	if s.canon == nil {
		s.canon = o
	}
	if s.home == nil && !s.hintValid {
		s.home = o
	}
	sh.mu.Unlock()
}

// intern makes proxy p the canonical rep of id unless one exists, seeds
// the hint with the proxy's birth rank unless something fresher is
// known, and returns the canonical rep.
func (t *objTable) intern(p *vm.Object, id int64, birth int) *vm.Object {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	s := sh.ent(id)
	if s.canon == nil {
		s.canon = p
	}
	if s.home == nil && !s.hintValid {
		s.hint, s.hintValid = birth, true
	}
	return s.canon
}

// dropCopies discards every cached value of id — write-once reads and
// the replica — and moves the generation, so an install in flight is
// discarded too. Callers hold the shard lock.
func (sh *objShard) dropCopies(id int64, s *objState) {
	sh.once.drop(id)
	s.dropReplica()
	s.gen++
}

// dropReplica discards the replica and its slot versions.
func (s *objState) dropReplica() { s.replica, s.vers, s.mark = nil, nil, 0 }

// learn processes a Moved notice: future accesses go to newHome, and
// every cached value of the object is dropped, because its state now
// answers to a different owner. An owner keeps no hint (the notice is
// transiently stale there), and a notice naming this node is not
// stored, so no node forwards to itself.
func (t *objTable) learn(id int64, newHome int) {
	sh := t.lock(id)
	s := sh.ent(id)
	sh.dropCopies(id, s)
	if s.home == nil && newHome != t.self {
		s.hint, s.hintValid = newHome, true
	}
	sh.mu.Unlock()
}

// handoff completes a migration on the previous owner once the new
// owner installed the state: ownership goes and the forwarding pointer
// to the new owner appears in one step, and this node's cached values of
// the object are dropped with it.
func (t *objTable) handoff(id int64, to int) {
	sh := t.lock(id)
	s := sh.ent(id)
	sh.dropCopies(id, s)
	s.home = nil
	s.hint, s.hintValid = to, true
	sh.mu.Unlock()
}

// install makes h the state-holder of id on its new owner (TRANSFER):
// the forwarding pointer goes, cached copies yield to the live
// instance, and the shipped reader set, minus this node, and write
// counter become the record's.
func (t *objTable) install(id int64, h *vm.Object, readers []int, ver uint16) {
	sh := t.lock(id)
	sh.own(id, sh.ent(id), h, readers, ver, t.self)
	sh.mu.Unlock()
}

func (sh *objShard) own(id int64, s *objState, h *vm.Object, readers []int, ver uint16, self int) {
	s.home = h
	if s.canon == nil {
		s.canon = h
	}
	s.hintValid = false
	sh.dropCopies(id, s)
	s.readers, s.ver, s.dropTid = nil, ver, 0
	for _, r := range readers {
		if r != self {
			s.addReader(r)
		}
	}
}

// promote installs this node's replicas of the dead rank's objects as
// authoritative copies after the owner died — every record holding a
// replica, a hint naming the dead rank and no home, except the ids in
// taken (ascending) — and returns the ids promoted, ascending. Each new
// home is a copy that carries the global id: the shadow itself may be
// serving reads on other threads, so it is never written, and the home
// — which writes update in place — gets its own fields. Its write
// counter continues from the newest one the replica saw.
func (t *objTable) promote(dead int, taken []int64) []int64 {
	var out []int64
	t.scan(func(id int64, s *objState) {
		if s.replica == nil || !s.hintValid || s.hint != dead || s.home != nil {
			return
		}
		if _, dup := slices.BinarySearch(taken, id); dup {
			return
		}
		h := *s.replica
		h.Fields = slices.Clone(h.Fields)
		h.ID = id
		// scan holds id's shard lock.
		t.shard(id).own(id, s, &h, nil, uint16(s.mark), t.self)
		out = append(out, id)
	})
	slices.Sort(out)
	return out
}

// purgeRank removes a dead or departed rank from every reader set, so no
// later write barrier waits on it.
func (t *objTable) purgeRank(rank int) {
	t.scan(func(_ int64, s *objState) { s.dropReader(rank) })
}

// owned lists the state-holders of the objects this node owns, in id
// order.
func (t *objTable) owned() []*vm.Object {
	var out []*vm.Object
	t.scan(func(_ int64, s *objState) {
		if s.home != nil {
			out = append(out, s.home)
		}
	})
	slices.SortFunc(out, func(a, b *vm.Object) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// charge adds traffic to id's affinity cell for this epoch.
func (t *objTable) charge(id int64, c affinityCell) {
	sh := t.lock(id)
	a := &sh.ent(id).aff
	a.reads += c.reads
	a.writes += c.writes
	a.bytes += c.bytes
	a.localWrites += c.localWrites
	sh.mu.Unlock()
}

// takeAffinity returns the epoch's affinity edges in id order and
// resets every cell (affinity is epoch-local, so the coordinator reacts
// to phase shifts, not history).
func (t *objTable) takeAffinity() []wire.AffinityEdge {
	var out []wire.AffinityEdge
	t.scan(func(id int64, s *objState) {
		if c := s.aff; c != (affinityCell{}) {
			out = append(out, wire.AffinityEdge{
				ID: id, Msgs: c.reads + c.writes, Bytes: c.bytes,
				Reads: c.reads, Writes: c.writes + c.localWrites,
			})
			s.aff = affinityCell{}
		}
	})
	slices.SortFunc(out, func(a, b wire.AffinityEdge) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// cachedOnce returns the write-once cache entry for field slot of id
// plus whether the hit is retained — served from an entry filled
// during an earlier invocation epoch.
//
// It takes no lock, so threads hitting the same object do not contend.
// An entry visible here was stored by storeOnce under the shard lock and
// is withdrawn the same way, in the step that moves the object's home.
func (t *objTable) cachedOnce(id int64, slot int) (v vm.Value, retained, ok bool) {
	set := t.shard(id).once.load(id)
	if set == nil {
		return nil, false, false
	}
	e, ok := set.lookup(slot)
	if !ok {
		return nil, false, false
	}
	cur := t.curEpoch()
	return e.v, cur > 0 && e.epoch < cur, true
}

// storeOnce fills the write-once cache, stamped with the current
// invocation epoch — unless the object moved here while the read was in
// flight, where an entry would shadow the live field.
func (t *objTable) storeOnce(id int64, slot int, v vm.Value) {
	cur := t.curEpoch()
	sh := t.lock(id)
	if s := sh.m[id]; s == nil || s.home == nil {
		var set onceSet
		if old := sh.once.load(id); old != nil {
			set = *old
		}
		set = set.with(onceEntry{slot: slot, v: v, epoch: cur})
		sh.once.store(id, &set)
	}
	sh.mu.Unlock()
}

// replica returns the object's replica shadow plus whether the hit is
// retained from an earlier invocation epoch.
func (t *objTable) replica(id int64) (o *vm.Object, retained, ok bool) {
	cur := t.curEpoch()
	sh := t.lock(id)
	defer sh.mu.Unlock()
	if s := sh.m[id]; s != nil && s.replica != nil {
		return s.replica, cur > 0 && s.replicaEpoch < cur, true
	}
	return nil, false, false
}

// replicaGen reads the invalidation generation a fetch must present to
// installReplica.
func (t *objTable) replicaGen(id int64) uint64 {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	if s := sh.m[id]; s != nil {
		return s.gen
	}
	return 0
}

// installReplica installs a fetched shadow, cut at the owner's write
// counter ver, unless a patch or home move intervened since gen was
// read — the snapshot could then predate a write and must not be served
// beyond the access that fetched it. Reports whether the install took.
func (t *objTable) installReplica(id int64, shadow *vm.Object, gen uint64, ver uint16) bool {
	cur := t.curEpoch()
	sh := t.lock(id)
	defer sh.mu.Unlock()
	s := sh.ent(id)
	if s.gen != gen {
		return false
	}
	s.replica, s.replicaEpoch = shadow, cur
	// A new replica starts a new 64-bit frame for its versions: every
	// patch in flight to it is within the window around ver.
	s.mark = serialBase + uint64(ver)
	s.vers = make([]uint64, len(shadow.Fields))
	for i := range s.vers {
		s.vers[i] = s.mark
	}
	return true
}

// serialBase offsets a replica's first widened version, so that counters
// up to 2¹⁵ older than it stay positive.
const serialBase = 1 << 16

// widen maps a two-byte write counter onto the replica's 64-bit version
// line: the value congruent to ver mod 2¹⁶ nearest to mark, the newest
// counter the replica has seen (serial-number order, RFC 1982). That is
// exact while every patch in flight lies within 2¹⁵ of mark: the
// replica's reader is in the reader set from its install on, so every
// write since mark sent it a patch still in flight, and those number at
// most the live logical threads plus one. The version a slot holds can
// lag mark by any amount — a slot written rarely beside a hot one — so
// versions are compared widened, never as two-byte counters.
func widen(ver uint16, mark uint64) uint64 {
	return mark + uint64(int64(int16(ver-uint16(mark))))
}

// patch applies one write-barrier delivery (an INVALIDATE, or a patch a
// reply carried): the owner wrote field slot of object id at write
// counter ver, storing v if update, else a value the replica cannot hold.
// The generation moves either way, so an in-flight install whose
// snapshot predates the write is discarded. A held replica whose slot
// already holds ver or a newer write keeps it; otherwise an update
// replaces the replica with a patched copy and a drop discards it. The
// write-once cache survives: its fields provably have no writes. kept
// reports whether a replica is still held; false means this node holds
// none, and the owner may drop it from the reader set. A slot outside
// the shadow drops the replica and is reported.
func (t *objTable) patch(id int64, slot int, ver uint16, update bool, v vm.Value) (kept bool, err error) {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	s := sh.ent(id)
	s.gen++
	old := s.replica
	switch {
	case old == nil:
		return false, nil
	case slot < 0 || slot >= len(old.Fields):
		s.dropReplica()
		return false, fmt.Errorf("patch of slot %d on a %d-field replica of %s", slot, len(old.Fields), old.Class.Name())
	}
	w := widen(ver, s.mark)
	switch {
	case w <= s.vers[slot]:
		return true, nil
	case !update:
		s.dropReplica()
		return false, nil
	}
	patched := *old
	patched.Fields = slices.Clone(old.Fields)
	patched.Fields[slot] = v
	s.replica = &patched
	s.vers[slot], s.mark = w, max(s.mark, w)
	return true, nil
}

// markDenied records that the owner refused replication of id.
func (t *objTable) markDenied(id int64) {
	sh := t.lock(id)
	sh.ent(id).denied = true
	sh.mu.Unlock()
}

// denied reports a recorded refusal.
func (t *objTable) denied(id int64) bool {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	s := sh.m[id]
	return s != nil && s.denied
}

func (s *objState) addReader(rank int) {
	if i, found := slices.BinarySearch(s.readers, rank); !found {
		s.readers = slices.Insert(s.readers, i, rank)
	}
	s.unmark(rank)
}

func (s *objState) dropReader(rank int) {
	if i, found := slices.BinarySearch(s.readers, rank); found {
		s.readers = slices.Delete(s.readers, i, i+1)
	}
	s.unmark(rank)
}

func (s *objState) unmark(rank int) {
	if rank == s.dropRank {
		s.dropTid = 0
	}
}

// addReader registers a node in the owner-side replica set and returns
// the write counter its snapshot is cut at.
func (t *objTable) addReader(id int64, rank int) uint16 {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	s := sh.ent(id)
	s.addReader(rank)
	return s.ver
}

// dropReader removes a node from the owner-side replica set: it answered
// a write barrier holding no replica, and re-registers on its next
// fetch.
func (t *objTable) dropReader(id int64, rank int) {
	sh := t.lock(id)
	if s := sh.m[id]; s != nil {
		s.dropReader(rank)
	}
	sh.mu.Unlock()
}

// write starts the write barrier of one store to id by thread tid:
// when the owner-side replica set is not empty, it advances the write
// counter and appends the readers to tell, sorted, to dst — all but
// one tid marked dropping; another thread's mark is cleared — and
// returns the counter the store's patches carry. The barrier passes a
// stack buffer, so reading a small set does not allocate.
func (t *objTable) write(dst []int, id int64, tid uint64) ([]int, uint16) {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	s := sh.m[id]
	if s == nil || len(s.readers) == 0 {
		return dst, 0
	}
	s.ver++
	if s.dropTid == 0 || s.dropTid != tid {
		s.dropTid = 0
		return append(dst, s.readers...), s.ver
	}
	for _, r := range s.readers {
		if r != s.dropRank {
			dst = append(dst, r)
		}
	}
	return dst, s.ver
}

// takeReaders removes and returns the replica set and write counter for
// a migration handoff (called under the object's freeze, so no reader
// can register and no write run concurrently); restoreReaders undoes it
// if the transfer fails.
func (t *objTable) takeReaders(id int64) ([]int, uint16) {
	sh := t.lock(id)
	defer sh.mu.Unlock()
	s := sh.m[id]
	if s == nil {
		return nil, 0
	}
	out, ver := s.readers, s.ver
	s.readers, s.ver, s.dropTid = nil, 0, 0
	return out, ver
}

// markDrop marks reader rank of id dropping for thread tid, whose
// reply carries rank the drop of its replica (see objState.dropTid).
func (t *objTable) markDrop(id int64, rank int, tid uint64) {
	sh := t.lock(id)
	if s := sh.m[id]; s != nil && slices.Contains(s.readers, rank) {
		s.dropTid, s.dropRank = tid, rank
	}
	sh.mu.Unlock()
}

// settleDrop clears thread tid's drop mark on id; with leave, the
// marked reader also leaves the set. tid's invocation completed, so the
// reader applied its replies, dropping its replica, and no write has
// reached it since, or it would have cleared the mark.
func (t *objTable) settleDrop(id int64, tid uint64, leave bool) {
	sh := t.lock(id)
	if s := sh.m[id]; s != nil && s.dropTid == tid {
		s.dropTid = 0
		if leave {
			s.dropReader(s.dropRank)
		}
	}
	sh.mu.Unlock()
}

// restoreReaders reinstates a taken replica set and write counter after
// a failed handoff.
func (t *objTable) restoreReaders(id int64, readers []int, ver uint16) {
	sh := t.lock(id)
	s := sh.ent(id)
	for _, r := range readers {
		s.addReader(r)
	}
	s.ver = ver
	sh.mu.Unlock()
}

// quiescent checks the object-record invariants that hold across a
// cluster with nothing in flight (after Shutdown, or between
// invocations of a synchronous workload), joining every violation:
//   - exactly one home per object across the live nodes — none only for
//     an object lost with its dead owner, whose every live hint names a
//     dead rank;
//   - no valid hint on an object's owner;
//   - no gate held or frozen;
//   - every reader set within the live ranks, and no node in its own;
//   - no record holding nothing but an idle gate;
//   - no write-once entry on an object's owner;
//   - no logical-thread context but the system thread's: an
//     invocation's drain finishes its asynchronous work, so no frame of
//     a retired thread arrives to recreate its context;
//   - coherence: every replica a live node holds of an object homed on
//     a live node is registered in the home's reader set, and equals the
//     home's fields slot by slot, references compared by global id;
//   - no object owned by a departed node (it stays up, forwarding).
//
// A rank is live unless the first node saw it die or depart.
func quiescent(nodes []*Node) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	live := nodes[0].roster.live
	homes := map[int64][]int{}
	deadHints := map[int64]bool{} // ids every live hint so far ties to a dead rank
	// The coherence check runs once every record has been seen: the
	// home's state, and each replica with the node holding it.
	type held struct {
		n *Node
		o *vm.Object
	}
	type owned struct {
		n       *Node
		o       *vm.Object
		readers []int
	}
	owners := map[int64]owned{}
	replicas := map[int64][]held{}
	for _, n := range nodes {
		if n != nil && nodes[0].roster.isDeparted(n.Rank) {
			for _, o := range n.objs.owned() {
				bad("node %d has left the cluster but owns %d", n.Rank, o.ID)
			}
		}
		if n == nil || !live(n.Rank) {
			continue
		}
		n.ltMu.Lock()
		for tid := range n.lts {
			if tid != 0 {
				bad("node %d: context of logical thread %d outlived its invocation", n.Rank, tid)
			}
		}
		n.ltMu.Unlock()
		for i := range n.objs.shards {
			sh := &n.objs.shards[i]
			sh.mu.Lock()
			for id, s := range sh.m {
				if s.vacant() {
					bad("node %d: record of %d holds nothing but an idle gate", n.Rank, id)
				}
				if s.depth != 0 || s.frozen != nil || s.idle != nil {
					bad("node %d: gate of %d still in use (depth %d, frozen %v)", n.Rank, id, s.depth, s.frozen != nil)
				}
				for _, r := range s.readers {
					if r == n.Rank || !live(r) {
						bad("node %d: reader set of %d is %v: holds this node or a rank that is not live", n.Rank, id, s.readers)
					}
				}
				if s.dropTid != 0 {
					bad("node %d: reader set of %d holds a drop mark of retired thread %d", n.Rank, id, s.dropTid)
				}
				if s.replica != nil {
					replicas[id] = append(replicas[id], held{n, s.replica})
				}
				if s.home != nil {
					if sh.once.load(id) != nil {
						bad("node %d: owner of %d holds write-once entries", n.Rank, id)
					}
					homes[id] = append(homes[id], n.Rank)
					owners[id] = owned{n, s.home, slices.Clone(s.readers)}
					if s.hintValid {
						bad("node %d: owns %d but holds a hint to %d", n.Rank, id, s.hint)
					}
				} else if s.canon != nil || s.hintValid {
					if _, seen := homes[id]; !seen {
						homes[id] = nil
					}
					dead := s.hintValid && !live(s.hint)
					if prev, seen := deadHints[id]; !seen || prev {
						deadHints[id] = dead
					} else if !dead {
						deadHints[id] = false
					}
				}
			}
			sh.mu.Unlock()
		}
	}
	for id, on := range homes {
		if len(on) > 1 || len(on) == 0 && !deadHints[id] {
			bad("object %d has %d homes among the live nodes (%v), want exactly one", id, len(on), on)
		}
	}
	for id, rs := range replicas {
		h, ok := owners[id]
		if !ok {
			continue // lost with its dead owner: nothing to compare against
		}
		for _, r := range rs {
			if _, in := slices.BinarySearch(h.readers, r.n.Rank); !in {
				bad("node %d: holds a replica of %d but is not in its reader set %v on node %d", r.n.Rank, id, h.readers, h.n.Rank)
			}
			if len(r.o.Fields) != len(h.o.Fields) {
				bad("node %d: replica of %d has %d fields, home has %d", r.n.Rank, id, len(r.o.Fields), len(h.o.Fields))
				continue
			}
			for slot, v := range r.o.Fields {
				if got, want := r.n.globalValue(v), h.n.globalValue(h.o.Fields[slot]); got != want {
					bad("node %d: replica of %d holds %v in slot %d, home node %d holds %v", r.n.Rank, id, got, slot, h.n.Rank, want)
				}
			}
		}
	}
	return errors.Join(errs...)
}

// globalRef names an object reference by its global id, the same on
// every node whichever shape (proxy, real or backing instance) holds it.
type globalRef struct{ id int64 }

// globalValue maps a field value to a form comparable across nodes:
// references become their global id, floats their bits (so NaN equals
// itself), and every other scalar stays as it is.
func (n *Node) globalValue(v vm.Value) any {
	switch x := v.(type) {
	case *vm.Object:
		if x == nil {
			return nil
		}
		id, _, _ := n.reference(x)
		return globalRef{id}
	case float64:
		return math.Float64bits(x)
	}
	return v
}
