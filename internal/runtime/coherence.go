package runtime

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"autodist/internal/vm"
)

// coherence is the single state machine behind every "where can this
// access be satisfied, and who else holds copies" question. It unifies
// what used to be three parallel mechanisms:
//
//   - the proxy-side write-once field cache (PR 1): entries in
//     cohEntry.once, the never-invalidated special case — the fields
//     provably have no writes, so only a home move drops them;
//   - migration cache-invalidation and forwarding hints (PR 2):
//     cohEntry.hint is the forwarding pointer, and learn() is the one
//     place a Moved notice both redirects future accesses and drops
//     every locally-cached value of the object;
//   - read replicas (this layer): cohEntry.replica is a full-field
//     snapshot serving GetFieldReplicated/InvokeReplicaRead locally,
//     patched or dropped by the owner's INVALIDATE, and cohEntry.readers
//     is the owner-side replica set the write barrier walks.
//
// Lock discipline: coherence.mu is a leaf lock. No method sends
// messages, takes Node.mu, or calls back into the runtime while
// holding it.
type coherence struct {
	mu   sync.Mutex
	ents map[int64]*cohEntry

	// epoch points at the cluster's invocation counter (nil outside a
	// cluster). Cache and replica entries are stamped with the epoch
	// they were filled in, so a hit can tell whether it is being served
	// from state learned in an earlier entrypoint invocation — the
	// cross-invocation retention the deployment lifecycle promises.
	epoch *int64
}

// curEpoch reads the cluster's current invocation epoch (0 when the
// node is not part of an invocation-counting cluster).
func (c *coherence) curEpoch() int64 {
	if c.epoch == nil {
		return 0
	}
	return atomic.LoadInt64(c.epoch)
}

// cohEntry is one object's coherence state on this node.
type cohEntry struct {
	// hint is the best-known current owner when this node does not
	// hold the object: seeded from the plan's placement at proxy
	// creation, refreshed by Moved notices, and doubling as the
	// forwarding pointer a previous owner relays stale requests
	// through. hintValid distinguishes "no knowledge".
	hint      int
	hintValid bool

	// once caches write-once field reads. A write can never invalidate
	// them (the facts pass proved there are no writes); only a home
	// move discards them, conservatively, with everything else.
	// onceEpoch records the invocation epoch each entry was filled in.
	once      map[string]vm.Value
	onceEpoch map[string]int64

	// replica is the installed field-snapshot shadow, nil when no
	// valid replica is held. It is never written in place: a patch
	// installs a modified copy. gen counts invalidation events
	// (INVALIDATE frames, patching or not, and Moved notices); an
	// install racing one is discarded by comparing gen. replicaEpoch
	// records the invocation epoch the shadow was installed in.
	replica      *vm.Object
	gen          uint64
	replicaEpoch int64

	// denied records an owner's refusal to replicate the object, so
	// the reader stops asking and uses plain remote reads.
	denied bool

	// readers is the owner-side replica set, sorted: ranks that
	// installed a replica and must be patched or invalidated before any
	// write completes. It travels with ownership on migration.
	readers []int
}

// ent returns (creating if needed) the entry for id. Callers hold mu.
func (c *coherence) ent(id int64) *cohEntry {
	if c.ents == nil {
		c.ents = map[int64]*cohEntry{}
	}
	e := c.ents[id]
	if e == nil {
		e = &cohEntry{}
		c.ents[id] = e
	}
	return e
}

// lookupHint returns the best-known owner for an object not held here.
func (c *coherence) lookupHint(id int64) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.ents[id]; e != nil && e.hintValid {
		return e.hint, true
	}
	return 0, false
}

// seedHint records the birth placement for a freshly-interned proxy
// without disturbing an existing (fresher) hint.
func (c *coherence) seedHint(id int64, home int) {
	c.mu.Lock()
	e := c.ent(id)
	if !e.hintValid {
		e.hint, e.hintValid = home, true
	}
	c.mu.Unlock()
}

// learn processes a Moved notice: the one transition that both
// redirects future accesses (hint) and invalidates every locally
// cached value of the object — its state now lives under a different
// owner, so cached reads and replicas may no longer be served.
// ownedHere suppresses the hint update on the (transiently stale)
// owner itself, and a self-pointing hint is dropped rather than stored
// so a racy notice can never make this node forward to itself.
func (c *coherence) learn(id int64, newHome int, self int, ownedHere bool) {
	c.mu.Lock()
	e := c.ent(id)
	e.once = nil
	e.onceEpoch = nil
	e.replica = nil
	e.gen++
	if !ownedHere && newHome != self {
		e.hint, e.hintValid = newHome, true
	}
	c.mu.Unlock()
}

// becomeOwner installs the post-transfer state on a new owner: the
// forwarding pointer disappears (requests terminate here now), local
// cached copies are superseded by the live instance, and the shipped
// replica set (minus ourselves) becomes the entry's reader set.
func (c *coherence) becomeOwner(id int64, readers []int, self int) {
	c.mu.Lock()
	e := c.ent(id)
	e.hintValid = false
	e.once = nil
	e.onceEpoch = nil
	e.replica = nil
	e.gen++
	e.readers = nil
	for _, r := range readers {
		if r != self {
			e.addReader(r)
		}
	}
	c.mu.Unlock()
}

// cachedOnce returns a write-once cache entry.
func (c *coherence) cachedOnce(id int64, member string) (vm.Value, bool) {
	v, _, ok := c.cachedOnceHit(id, member)
	return v, ok
}

// cachedOnceHit returns a write-once cache entry plus whether the hit
// is *retained* — served from an entry filled during an earlier
// invocation epoch.
func (c *coherence) cachedOnceHit(id int64, member string) (v vm.Value, retained, ok bool) {
	cur := c.curEpoch()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.ents[id]; e != nil && e.once != nil {
		v, ok = e.once[member]
		retained = ok && cur > 0 && e.onceEpoch[member] < cur
		return v, retained, ok
	}
	return nil, false, false
}

// storeOnce populates the write-once cache, stamping the entry with
// the current invocation epoch.
func (c *coherence) storeOnce(id int64, member string, v vm.Value) {
	cur := c.curEpoch()
	c.mu.Lock()
	e := c.ent(id)
	if e.once == nil {
		e.once = map[string]vm.Value{}
		e.onceEpoch = map[string]int64{}
	}
	e.once[member] = v
	e.onceEpoch[member] = cur
	c.mu.Unlock()
}

// replicaShadow returns the object's valid replica shadow, if any.
func (c *coherence) replicaShadow(id int64) (*vm.Object, bool) {
	o, _, ok := c.replicaShadowHit(id)
	return o, ok
}

// replicaShadowHit returns the replica shadow plus whether the hit is
// retained from an earlier invocation epoch.
func (c *coherence) replicaShadowHit(id int64) (o *vm.Object, retained, ok bool) {
	cur := c.curEpoch()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.ents[id]; e != nil && e.replica != nil {
		return e.replica, cur > 0 && e.replicaEpoch < cur, true
	}
	return nil, false, false
}

// replicaGen reads the invalidation generation a fetch must present to
// installReplica.
func (c *coherence) replicaGen(id int64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.ents[id]; e != nil {
		return e.gen
	}
	return 0
}

// installReplica installs a fetched shadow unless an invalidation (or
// home move) intervened since gen was read — the snapshot would then
// predate a write and must not be served beyond the access that
// fetched it. Reports whether the install took.
func (c *coherence) installReplica(id int64, shadow *vm.Object, gen uint64) bool {
	cur := c.curEpoch()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.ent(id)
	if e.gen != gen {
		return false
	}
	e.replica = shadow
	e.replicaEpoch = cur
	return true
}

// invalidate drops the object's replica on an INVALIDATE frame and
// bumps the generation so in-flight installs are discarded. The
// write-once cache survives: its fields provably have no writes.
func (c *coherence) invalidate(id int64) {
	c.mu.Lock()
	e := c.ent(id)
	e.replica = nil
	e.gen++
	c.mu.Unlock()
}

// update applies a patching INVALIDATE: the owner stored v in field
// slot of object id. A held replica is replaced by a patched copy —
// never written in place, because other threads may be serving reads
// from the current shadow — and the generation is bumped either way,
// so an in-flight install whose snapshot predates the write is
// discarded. kept reports whether a replica was patched; false means
// this node holds none, and the owner may drop it from the reader set.
// A slot outside the shadow drops the replica and is reported.
func (c *coherence) update(id int64, slot int, v vm.Value) (kept bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.ent(id)
	e.gen++
	old := e.replica
	if old == nil {
		return false, nil
	}
	if slot < 0 || slot >= len(old.Fields) {
		e.replica = nil
		return false, fmt.Errorf("patch of slot %d on a %d-field replica of %s", slot, len(old.Fields), old.Class.Name())
	}
	patched := *old
	patched.Fields = slices.Clone(old.Fields)
	patched.Fields[slot] = v
	e.replica = &patched
	return true, nil
}

// markDenied records that the owner refused replication of id.
func (c *coherence) markDenied(id int64) {
	c.mu.Lock()
	c.ent(id).denied = true
	c.mu.Unlock()
}

// replicaDenied reports a recorded refusal.
func (c *coherence) replicaDenied(id int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.ents[id]
	return e != nil && e.denied
}

// addReader inserts rank into the entry's sorted reader set. Callers
// hold mu.
func (e *cohEntry) addReader(rank int) {
	if i, found := slices.BinarySearch(e.readers, rank); !found {
		e.readers = slices.Insert(e.readers, i, rank)
	}
}

// dropReader removes rank from the entry's reader set. Callers hold mu.
func (e *cohEntry) dropReader(rank int) {
	if i, found := slices.BinarySearch(e.readers, rank); found {
		e.readers = slices.Delete(e.readers, i, i+1)
	}
}

// addReader registers a node in the owner-side replica set.
func (c *coherence) addReader(id int64, rank int) {
	c.mu.Lock()
	c.ent(id).addReader(rank)
	c.mu.Unlock()
}

// dropReader removes a node from the owner-side replica set: it
// answered a write barrier holding no replica, and re-registers on its
// next fetch.
func (c *coherence) dropReader(id int64, rank int) {
	c.mu.Lock()
	if e := c.ents[id]; e != nil {
		e.dropReader(rank)
	}
	c.mu.Unlock()
}

// appendReaders appends the owner-side replica set, sorted, to dst: the
// write barrier passes a stack buffer, so reading a small set does not
// allocate.
func (c *coherence) appendReaders(dst []int, id int64) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.ents[id]; e != nil {
		dst = append(dst, e.readers...)
	}
	return dst
}

// takeReaders removes and returns the replica set for a migration
// handoff (called under the object's freeze gate, so no new reader can
// register concurrently). restoreReaders undoes it if the transfer
// fails.
func (c *coherence) takeReaders(id int64) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.ents[id]
	if e == nil {
		return nil
	}
	out := e.readers
	e.readers = nil
	return out
}

// restoreReaders reinstates a taken replica set after a failed
// handoff.
func (c *coherence) restoreReaders(id int64, readers []int) {
	if len(readers) == 0 {
		return
	}
	c.mu.Lock()
	e := c.ent(id)
	for _, r := range readers {
		e.addReader(r)
	}
	c.mu.Unlock()
}
