package runtime

// Site resolution. Every mediated access names its target by a site id,
// an index into the plan's site table (rewrite.Plan.Sites): the access
// natives take it as a constant, and a DEPENDENCE or DEPSEQ entry
// carries it in place of a member name. Every node runs one program
// image and plan (JOIN checks their digest), so each node resolves each
// site once, here, and never looks an access up by name on the access
// or serve path.

import (
	"fmt"
	"sync/atomic"

	"autodist/internal/rewrite"
	"autodist/internal/vm"
)

// site is one plan site resolved on this node.
type site struct {
	rewrite.Site
	id int
	// cls is the class the site names: the static type of a field or
	// method access, the class of a static field.
	cls *vm.Class
	// slot is a field site's slot: the same in cls and in every
	// subclass, since the VM lays inherited fields out first and a
	// redeclared field reuses the inherited slot. -1 for other sites.
	slot int
	// callees holds, per receiver class seen, the method an invoke site
	// dispatches to: an override, or an inherited method, found by
	// virtual lookup once per class. Copy-on-write, read without a lock.
	callees atomic.Pointer[[]siteCallee]
}

// siteCallee is one receiver class of an invoke site and its target.
type siteCallee struct {
	cls *vm.Class
	ce  *vm.Callee
}

// resolveSites builds the node's site table from its plan (none without
// one).
func (n *Node) resolveSites() {
	if n.Plan == nil {
		return
	}
	n.sites = make([]site, len(n.Plan.Sites))
	for i, ps := range n.Plan.Sites {
		n.sites[i].resolve(n.VM, ps, i)
	}
}

// resolve fills s as site id of the plan, ps, on machine.
func (s *site) resolve(machine *vm.VM, ps rewrite.Site, id int) {
	s.Site, s.id, s.slot = ps, id, -1
	s.cls = machine.Class(ps.Class)
	if s.cls != nil && !ps.Invoke() && !ps.Static() {
		s.slot = s.cls.FieldSlot(ps.Name)
	}
}

// site returns the site an access names.
func (n *Node) site(id int) (*site, error) {
	if id < 0 || id >= len(n.sites) {
		return nil, fmt.Errorf("runtime: node %d: no access site %d", n.Rank, id)
	}
	return &n.sites[id], nil
}

// field returns the slot a field site reads or writes in an instance of
// class c, which must be the site's class or derive from it.
func (s *site) field(c *vm.Class) (int, error) {
	if s.slot < 0 || (c != s.cls && !c.IsSubclassOf(s.cls)) {
		return -1, fmt.Errorf("runtime: %s has no field %s", c.Name(), s.Name)
	}
	return s.slot, nil
}

// callee returns the method an invoke site calls on a receiver of class
// c. The first receiver of each class resolves by virtual lookup; later
// ones find it in the site's class list.
func (s *site) callee(machine *vm.VM, c *vm.Class) (*vm.Callee, error) {
	for {
		old := s.callees.Load()
		if old != nil {
			for _, e := range *old {
				if e.cls == c {
					return e.ce, nil
				}
			}
		}
		ce := machine.VirtualCallee(c, s.Name, s.Desc)
		if ce == nil {
			return nil, fmt.Errorf("runtime: no method %s.%s:%s", c.Name(), s.Name, s.Desc)
		}
		var next []siteCallee
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, siteCallee{cls: c, ce: ce})
		if s.callees.CompareAndSwap(old, &next) {
			return ce, nil
		}
	}
}

// label names the site's access in an error: name:desc for a method,
// the field name for an instance field, Class.name for a static one.
func (s *site) label() string {
	switch {
	case s.Invoke():
		return s.Name + ":" + s.Desc
	case s.Static():
		return s.Class + "." + s.Name
	}
	return s.Name
}
