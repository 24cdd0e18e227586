package pipeline

// SkipAhead exposes the dead-cycle skip to the external tests.
func (p *Processor) SkipAhead(limit uint64) bool { return p.skipAhead(limit) }
