package runtime

import (
	"fmt"
	"slices"
	"sync"

	"autodist/internal/wire"
)

// roster is everything a node knows about who is in the cluster: the
// installed membership view — its id, the rank space and the ranks that
// departed gracefully — and the ranks the failure detector declared
// dead. Ranks are never reused: a departed or dead rank keeps its
// number and the rank space only grows, so every rank-indexed structure
// in the runtime (homes, hints, reader sets) stays valid across
// membership changes.
//
// Every node starts at view 0 over the starting ranks. The coordinator
// builds the next view when it admits a joiner (grow) or retires a
// leaver (shrink), and every member installs it from the WELCOME that
// closes the round. A fabric rank grown for a joiner the cluster then
// refused is burned on the coordinator (burn): it joins the departed
// set, and the next admission extends the view past it. A cluster nobody joins or drains stays at view 0,
// which the frame envelope does not encode, so its coordination frames
// carry no view id at all.
type roster struct {
	mu       sync.Mutex
	view     uint64
	size     int
	departed []int // ascending; burned ranks may lie beyond size
	dead     []int // sticky: a dead rank never comes back
}

// viewID is the installed view's id, which send stamps on coordination
// frames.
func (r *roster) viewID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// span is the installed view's rank space, departed and dead ranks
// included. A fabric rank reserved for a joiner the coordinator has not
// admitted yet lies beyond it.
func (r *roster) span() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// live reports whether rank is a current member: admitted, neither
// departed nor dead.
func (r *roster) live(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveLocked(rank)
}

func (r *roster) liveLocked(rank int) bool {
	return rank >= 0 && rank < r.size && !slices.Contains(r.departed, rank) && !slices.Contains(r.dead, rank)
}

// isDead reports whether the failure detector declared rank dead.
func (r *roster) isDead(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Contains(r.dead, rank)
}

// isDeparted reports whether rank left the cluster gracefully.
func (r *roster) isDeparted(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Contains(r.departed, rank)
}

// members lists the live ranks, ascending: the ranks a coordinator
// round may address.
func (r *roster) members() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for rank := 0; rank < r.size; rank++ {
		if r.liveLocked(rank) {
			out = append(out, rank)
		}
	}
	return out
}

// markDead records the failure detector's verdict and reports whether
// it is news: a rank already dead, or one that left gracefully, is not.
func (r *roster) markDead(rank int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < 0 || slices.Contains(r.dead, rank) || slices.Contains(r.departed, rank) {
		return false
	}
	r.dead = append(r.dead, rank)
	return true
}

// grow builds the WELCOME that admits joiner, which must be the next
// rank of the space that is not burned.
func (r *roster) grow(joiner int) (wire.Welcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.size
	for slices.Contains(r.departed, next) {
		next++
	}
	if joiner != next {
		return wire.Welcome{}, fmt.Errorf("joiner rank %d does not extend view %d (size %d, next rank %d)", joiner, r.view, r.size, next)
	}
	return wire.Welcome{Accept: true, ViewID: r.view + 1, Size: joiner + 1, Departed: r.departed}, nil
}

// burn gives up a rank the fabric grew for a joiner that was refused
// before the coordinator admitted it: the rank goes into the departed
// set beyond the view, so the next grow skips it and the view that
// admits the next joiner carries it as departed. Ranks are never
// reused, so a burned rank never comes back.
func (r *roster) burn(rank int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank < r.size || slices.Contains(r.departed, rank) {
		return
	}
	r.departed = append(slices.Clone(r.departed), rank)
	slices.Sort(r.departed)
}

// shrink builds the WELCOME that retires rank, which must be live.
func (r *roster) shrink(rank int) (wire.Welcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.liveLocked(rank) {
		return wire.Welcome{}, fmt.Errorf("rank %d is not a live member of view %d", rank, r.view)
	}
	departed := append(slices.Clone(r.departed), rank)
	slices.Sort(departed)
	return wire.Welcome{Accept: true, ViewID: r.view + 1, Size: r.size, Departed: departed}, nil
}

// install applies a WELCOME's view and returns the ranks it retires
// that were members before. A delta that leaves the view alone (view id
// 0: a recovery) installs nothing; one whose view is not newer than the
// installed one raced a later delta, and install refuses it (ok false).
// The delta's dead rank is not marked here: the node's own PEERDOWN
// does that, and must find the rank undeclared to sweep the requests
// waiting on it.
func (r *roster) install(w *wire.Welcome) (gone []int, ok bool) {
	if w.ViewID == 0 {
		return nil, true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if w.ViewID <= r.view {
		return nil, false
	}
	for _, d := range w.Departed {
		if d < r.size && !slices.Contains(r.departed, d) {
			gone = append(gone, d)
		}
	}
	r.view, r.size, r.departed = w.ViewID, w.Size, w.Departed
	return gone, true
}
