package live

import "rwp/internal/probe"

// Counters are the per-set operation counters. Every field is a sum
// over events, so aggregating them across sets is order-independent —
// the root of the shard-count invariance guarantee.
type Counters struct {
	Gets           uint64 // Get operations
	GetHits        uint64
	GetMisses      uint64
	Puts           uint64 // Put operations
	PutHits        uint64 // overwrites of a resident key
	PutInserts     uint64 // write-allocate fills
	Loads          uint64 // backing-store fetches installed as fills (read-allocate)
	LoadRaces      uint64 // fetches discarded because a writer installed the key first
	LoadAbsents    uint64 // fetches the backing store answered "no such key": nothing installed, miss returned
	CoalescedLoads uint64 // misses served by another Get's in-flight or just-landed fill (no Loader call of their own)
	NegHits        uint64 // misses answered by the negative cache (no Loader call)
	NegInserts     uint64 // Loader misses recorded in the negative cache instead of filled
	LeaseExpires   uint64 // fill leases deposed after LeaseOps set ops (waiter re-fetched)
	Fills          uint64
	FillsDirty     uint64
	Bypasses       uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	c.Gets += o.Gets
	c.GetHits += o.GetHits
	c.GetMisses += o.GetMisses
	c.Puts += o.Puts
	c.PutHits += o.PutHits
	c.PutInserts += o.PutInserts
	c.Loads += o.Loads
	c.LoadRaces += o.LoadRaces
	c.LoadAbsents += o.LoadAbsents
	c.CoalescedLoads += o.CoalescedLoads
	c.NegHits += o.NegHits
	c.NegInserts += o.NegInserts
	c.LeaseExpires += o.LeaseExpires
	c.Fills += o.Fills
	c.FillsDirty += o.FillsDirty
	c.Bypasses += o.Bypasses
	c.Evictions += o.Evictions
	c.DirtyEvictions += o.DirtyEvictions
}

// ReadHitRate returns GetHits/Gets (0 when no Gets) — the quantity RWP
// raises over LRU.
func (c Counters) ReadHitRate() float64 {
	if c.Gets == 0 {
		return 0
	}
	return float64(c.GetHits) / float64(c.Gets)
}

// Stats is a point-in-time aggregate over every set.
type Stats struct {
	Counters
	// Entries and DirtyEntries are the current occupancy totals.
	Entries      int
	DirtyEntries int
	// Retargets counts RWP repartitionings summed over all sets (0 for
	// LRU).
	Retargets uint64
	// TargetHist[d] counts the sets whose current dirty-partition
	// target is d ways (nil for LRU).
	TargetHist []uint64
	// RetargetUp/Down/Same split Retargets by decision direction
	// (raised, lowered, or kept the dirty target); their sum equals
	// Retargets. Zero for LRU.
	RetargetUp   uint64
	RetargetDown uint64
	RetargetSame uint64
	// CostHist is the histogram of modeled per-op service costs (see
	// the Cost* constants), exact and sparse. Bucket-wise merging is
	// commutative, so it aggregates order-independently like every
	// other field; percentiles come from probe.CostHist.Percentile.
	// It is CostHistClean + CostHistDirty, summed per set as stats are
	// aggregated — the sets keep only the split.
	CostHist probe.CostHist
	// CostHistClean and CostHistDirty split CostHist by the partition
	// that served or received each op: Get hits by the line's dirty
	// bit, all other Gets clean (a read miss is or would be a clean
	// fill), all Puts dirty (a write dirties the line). The split is
	// what lets the restart benchmark show dirty-eviction cost recovery
	// per partition.
	CostHistClean probe.CostHist
	CostHistDirty probe.CostHist
}

// Add accumulates o into s field by field. Every component is an
// order-independent sum (TargetHist adds element-wise; a nil histogram
// on either side is treated as all-zero), so merging per-range or
// per-node snapshots in any order yields the same aggregate — the
// property the cluster layer's merged stats document rests on.
func (s *Stats) Add(o Stats) {
	s.Counters.add(o.Counters)
	s.Entries += o.Entries
	s.DirtyEntries += o.DirtyEntries
	s.Retargets += o.Retargets
	if o.TargetHist != nil {
		if s.TargetHist == nil {
			s.TargetHist = make([]uint64, len(o.TargetHist))
		}
		for d := range o.TargetHist {
			s.TargetHist[d] += o.TargetHist[d]
		}
	}
	s.RetargetUp += o.RetargetUp
	s.RetargetDown += o.RetargetDown
	s.RetargetSame += o.RetargetSame
	s.CostHist.Add(o.CostHist)
	s.CostHistClean.Add(o.CostHistClean)
	s.CostHistDirty.Add(o.CostHistDirty)
}

// addSet accumulates one set's counters and policy state into s.
// Called with the set's shard lock held.
func (s *Stats) addSet(ls *lset) {
	s.Counters.add(ls.ops)
	s.Entries += ls.validCount
	s.DirtyEntries += ls.dirtyCount
	if ls.rwp != nil {
		s.Retargets += ls.rwp.Intervals()
		s.TargetHist[ls.rwp.TargetDirty()]++
		up, down, same := ls.rwp.RetargetDirs()
		s.RetargetUp += up
		s.RetargetDown += down
		s.RetargetSame += same
	}
	s.CostHist.Add(ls.costsClean)
	s.CostHist.Add(ls.costsDirty)
	s.CostHistClean.Add(ls.costsClean)
	s.CostHistDirty.Add(ls.costsDirty)
}

// Stats aggregates the per-set counters and policy state. It locks one
// shard at a time, so under concurrent load the aggregate is a
// consistent sum of per-set snapshots, not a global atomic snapshot.
func (c *Cache) Stats() Stats { return c.StatsRange(0, c.cfg.Sets) }

// StatsRange aggregates exactly the global sets in [lo, hi). The
// cluster layer assigns each ring shard a contiguous set range, so a
// node's contribution to the merged cluster stats is the sum of
// StatsRange over the shards it serves; summing every shard's range
// over its serving node covers each set exactly once, which makes the
// merged Stats of a replication-factor-1 cluster equal the single-node
// Stats field for field (untouched sets contribute identically on
// both sides). It panics if the range is out of bounds.
func (c *Cache) StatsRange(lo, hi int) Stats {
	if lo < 0 || hi > c.cfg.Sets || lo > hi {
		panic("live: StatsRange out of bounds")
	}
	var s Stats
	if c.cfg.Policy == "rwp" {
		s.TargetHist = make([]uint64, c.cfg.Ways+1)
	}
	c.eachSet(lo, hi, func(_ int, ls *lset) { s.addSet(ls) })
	return s
}

// ProbeStats derives the probe recorder view of the cache from the
// per-set counters: the class counters and eviction split the
// simulator's cache model would have recorded for the same op stream,
// plus the service-cost histogram. It returns nil when the cache was
// built without Config.Record.
//
// The mapping: every Get is a Load access (hits split by the line's
// dirty bit; fills are the Loader installs, all clean); every Put is a
// Store access (fills are the write-allocates, Fills-Loads; every
// dirty fill is a Put); evictions split by the victim's dirty bit.
// Retarget events are an event log, not a sum, so the view has none;
// the per-set retarget counts are in Stats.
func (c *Cache) ProbeStats() *probe.Recorder {
	if !c.cfg.Record {
		return nil
	}
	m := probe.NewRecorder(0)
	load, store := &m.Classes[probe.Load], &m.Classes[probe.Store]
	c.eachSet(0, c.cfg.Sets, func(_ int, ls *lset) {
		o, sp := &ls.ops, &ls.splits
		load.Add(probe.ClassCounters{
			Accesses: o.Gets, Hits: o.GetHits, Misses: o.GetMisses,
			HitsClean: sp.GetHitsClean, HitsDirty: sp.GetHitsDirty,
			Fills: o.Loads, Bypasses: sp.BypassLoads,
		})
		store.Add(probe.ClassCounters{
			Accesses: o.Puts, Hits: o.PutHits, Misses: o.PutInserts,
			HitsClean: sp.PutHitsClean, HitsDirty: sp.PutHitsDirty,
			Fills: o.Fills - o.Loads, FillsDirty: o.FillsDirty, Bypasses: sp.BypassStores,
		})
		m.EvictDirty += o.DirtyEvictions
		m.EvictClean += o.Evictions - o.DirtyEvictions
		m.Costs.Add(ls.costsClean)
		m.Costs.Add(ls.costsDirty)
	})
	return m
}

// ResetStats zeroes the operation counters and cost histograms (e.g.
// after warmup), leaving cache contents and policy state untouched —
// the same warmup/measure split the simulator uses.
func (c *Cache) ResetStats() {
	c.eachSet(0, c.cfg.Sets, func(_ int, ls *lset) {
		ls.ops = Counters{}
		ls.splits = splitCounters{}
		ls.costsClean.Reset()
		ls.costsDirty.Reset()
	})
}
