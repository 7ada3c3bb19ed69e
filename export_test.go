package autodist

// FillStats exposes fillStats to the external test package.
func (r *RunResult) FillStats(c Counters) { r.fillStats(c) }

// Quiescent exposes the runtime's object-record invariant check on the
// surviving nodes (see runtime.Cluster.Quiescent).
func (c *Cluster) Quiescent() error { return c.rt.Quiescent() }
