package main

import (
	"fmt"
	"io"

	"rwp/internal/live"
	"rwp/internal/live/drive"
	"rwp/internal/live/loadgen"
	"rwp/internal/stats"
)

// benchRow is one profile's RWP-vs-LRU comparison.
type benchRow struct {
	profile  string
	lru, rwp float64 // measured read-hit rates
}

// runBench measures the read-hit rate of the live cache under each
// profile's loadgen stream, once with per-set LRU and once with per-set
// RWP, using the simulator's warmup/measure discipline: warm ops, reset
// stats, measure ops. The stream is driven through the chosen transport
// (direct, http, or tcp) — a single-goroutine client either way, so
// every number is deterministic and transport-invariant; batch and
// depth only shape the tcp transport's framing.
func runBench(w io.Writer, base live.Config, profiles []string, warmup, measure, valSize int, transport string, batch, depth int) error {
	fmt.Fprintf(w, "live cache bench: %d sets x %d ways, warmup %d ops, measure %d ops, transport %s\n",
		base.Sets, base.Ways, warmup, measure, transport)
	fmt.Fprintf(w, "%-12s %10s %10s %8s\n", "profile", "lru", "rwp", "rwp/lru")
	var rows []benchRow
	for _, prof := range profiles {
		row := benchRow{profile: prof}
		for _, pol := range []string{"lru", "rwp"} {
			cfg := base
			cfg.Policy = pol
			c, err := live.New(cfg)
			if err != nil {
				return err
			}
			g, err := loadgen.NewStream(prof, 0, valSize)
			if err != nil {
				return err
			}
			tgt, err := drive.New(transport, c, batch, depth)
			if err != nil {
				return err
			}
			if err := tgt.Replay(loadgen.Take(g, warmup)); err != nil {
				tgt.Close()
				return err
			}
			c.ResetStats()
			if err := tgt.Replay(loadgen.Take(g, measure)); err != nil {
				tgt.Close()
				return err
			}
			tgt.Close()
			hr := c.Stats().ReadHitRate()
			if pol == "lru" {
				row.lru = hr
			} else {
				row.rwp = hr
			}
		}
		rows = append(rows, row)
		if r, ok := ratio(row); ok {
			fmt.Fprintf(w, "%-12s %9.2f%% %9.2f%% %8.3f\n", row.profile, 100*row.lru, 100*row.rwp, r)
		} else {
			fmt.Fprintf(w, "%-12s %9.2f%% %9.2f%% %8s\n", row.profile, 100*row.lru, 100*row.rwp, "n/a")
		}
	}
	var ratios []float64
	var skipped []string
	for _, r := range rows {
		if v, ok := ratio(r); ok {
			ratios = append(ratios, v)
		} else {
			skipped = append(skipped, r.profile)
		}
	}
	fmt.Fprintf(w, "%-12s %10s %10s %8.3f\n", "geomean", "", "", stats.GeoMean(ratios))
	if len(skipped) > 0 {
		fmt.Fprintf(w, "geomean excludes %v (LRU read-hit rate ~0: ratio undefined)\n", skipped)
	}
	return nil
}

// ratio is the per-profile rwp/lru read-hit-rate ratio. When LRU's hit
// rate is essentially zero the ratio is undefined (any RWP hits would
// make it arbitrarily large), so such rows are reported but excluded
// from the geomean.
func ratio(r benchRow) (float64, bool) {
	const eps = 1e-3
	if r.lru < eps {
		return 0, false
	}
	rwp := r.rwp
	if rwp < eps {
		rwp = eps
	}
	return rwp / r.lru, true
}
