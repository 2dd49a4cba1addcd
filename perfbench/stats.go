package main

import (
	"fmt"
	"sort"
	"time"
)

// minTailSamples is the fewest samples a p90 may be reported from: at
// 100 samples, ten lie beyond the 90th percentile.
const minTailSamples = 100

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest ranks. xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// p90 returns the 90th percentile, refusing runs too short to have ten
// samples beyond it.
func p90(xs []float64) (float64, error) {
	if len(xs) < minTailSamples {
		return 0, fmt.Errorf("p90 needs at least %d samples, have %d: run longer", minTailSamples, len(xs))
	}
	return quantile(xs, 0.9), nil
}

// interval is a half-open wall-clock interval [start, end).
type interval struct{ start, end time.Duration }

// covered returns the total length of the union of ivs: the time during
// which at least one interval was open. ivs is reordered.
func covered(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if open && iv.start <= cur.end {
			if iv.end > cur.end {
				cur.end = iv.end
			}
			continue
		}
		if open {
			total += cur.end - cur.start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}
