package analysis

// All returns every Whirlpool analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxPoll,
		LockGuard,
	}
}
