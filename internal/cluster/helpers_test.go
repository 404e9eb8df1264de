package cluster

// Seq builds a stage with sequential children.
func Seq(tier string, work float64, children ...*Stage) *Stage {
	return &Stage{Tier: tier, Work: work, Children: children}
}

// Par builds a stage with parallel children.
func Par(tier string, work float64, children ...*Stage) *Stage {
	return &Stage{Tier: tier, Work: work, Parallel: true, Children: children}
}

// readStats samples every tier at once, as the agents of a single node
// would.
func readStats(c *Cluster) []Stats {
	out := make([]Stats, len(c.tiers))
	for i := range c.tiers {
		out[i] = c.SampleTier(i)
	}
	return out
}
