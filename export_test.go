package autodist

// FillStats exposes fillStats to the external test package.
func (r *RunResult) FillStats(c Counters) { r.fillStats(c) }
