// Package trace records the round-by-round evolution of a beeping
// execution for analysis and export: per-round aggregate metrics
// (beeping vertices, prominent vertices, stabilized vertices, level
// statistics) and optional full per-vertex level histories, with CSV
// output consumed by the CLI tools.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/beep"
	"repro/internal/core"
)

// RoundStats are the aggregate metrics of one round.
type RoundStats struct {
	Round int
	// Beeping is the number of vertices that transmitted on any channel.
	Beeping int
	// Chan2 is the number of vertices that transmitted on channel 2
	// (Algorithm 2's MIS announcements); 0 for single-channel runs.
	Chan2 int
	// Prominent is |PM_t| (vertices with ℓ <= 0, Definition 3.3).
	Prominent int
	// Stable is |S_t| (vertices whose output has stabilized).
	Stable int
	// InMIS is |I_t|.
	InMIS int
	// MeanLevel and MinLevel/MaxLevel summarize the level field.
	MeanLevel float64
	MinLevel  int
	MaxLevel  int
}

// Recorder observes a network and accumulates per-round statistics.
// Attach its Observer() at network construction; it captures one row
// per round.
type Recorder struct {
	net *beep.Network
	// probe is the run's legality probe, refreshed inside the round
	// observer: sharing it with the run's stop check keeps one reader
	// on the network's change feed, so a quiet round re-exports no
	// word and the stop check's own Refresh right after finds nothing
	// new.
	probe *core.State
	stats []RoundStats
	// KeepLevels enables full per-vertex level histories (memory grows
	// as rounds × n).
	KeepLevels bool
	levels     [][]int

	lastSent []beep.Signal
}

// NewRecorder creates a recorder for net that reads levels and
// legality through probe, which should be the State the run's stop
// check refreshes (the one passed to core.Stabilize, say): two States
// on one network would take the change feed from each other and re-read
// all n levels every round. It works with every core protocol.
func NewRecorder(net *beep.Network, probe *core.State) *Recorder {
	return &Recorder{net: net, probe: probe}
}

// Observer returns the beep.WithObserver callback that feeds the
// recorder; install it when building the network.
func (r *Recorder) Observer() func(round int, sent, heard []beep.Signal) {
	return func(_ int, sent, _ []beep.Signal) {
		r.lastSent = append(r.lastSent[:0], sent...)
		r.capture()
	}
}

// capture computes this round's statistics from the network state.
func (r *Recorder) capture() {
	st := r.probe
	if err := st.Refresh(r.net); err != nil {
		// Non-core protocols have no levels; record signal stats only.
		s := RoundStats{Round: r.net.Round()}
		for _, sig := range r.lastSent {
			if sig != beep.Silent {
				s.Beeping++
			}
			if sig.Has(beep.Chan2) {
				s.Chan2++
			}
		}
		r.stats = append(r.stats, s)
		return
	}
	n := r.net.N()
	s := RoundStats{
		Round:    r.net.Round(),
		Stable:   st.StableCount(),
		InMIS:    st.MISCount(),
		MinLevel: 1 << 30,
		MaxLevel: -(1 << 30),
	}
	sum := 0
	var levelRow []int
	if r.KeepLevels {
		levelRow = make([]int, n)
	}
	for v := 0; v < n; v++ {
		l := st.Level(v)
		sum += l
		if l < s.MinLevel {
			s.MinLevel = l
		}
		if l > s.MaxLevel {
			s.MaxLevel = l
		}
		if st.Prominent(v) {
			s.Prominent++
		}
		if levelRow != nil {
			levelRow[v] = l
		}
	}
	for _, sig := range r.lastSent {
		if sig != beep.Silent {
			s.Beeping++
		}
		if sig.Has(beep.Chan2) {
			s.Chan2++
		}
	}
	if n > 0 {
		s.MeanLevel = float64(sum) / float64(n)
	} else {
		s.MinLevel, s.MaxLevel = 0, 0
	}
	r.stats = append(r.stats, s)
	if levelRow != nil {
		r.levels = append(r.levels, levelRow)
	}
}

// Stats returns the recorded per-round statistics.
func (r *Recorder) Stats() []RoundStats { return r.stats }

// Levels returns the per-vertex level history (only populated with
// KeepLevels).
func (r *Recorder) Levels() [][]int { return r.levels }

// WriteCSV writes the aggregate statistics as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "round,beeping,chan2,prominent,stable,inmis,mean_level,min_level,max_level"); err != nil {
		return fmt.Errorf("trace csv: %w", err)
	}
	for _, s := range r.stats {
		_, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%s,%d,%d\n",
			s.Round, s.Beeping, s.Chan2, s.Prominent, s.Stable, s.InMIS,
			strconv.FormatFloat(s.MeanLevel, 'g', 6, 64), s.MinLevel, s.MaxLevel)
		if err != nil {
			return fmt.Errorf("trace csv: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace csv: %w", err)
	}
	return nil
}

// WriteLevelsCSV writes the per-vertex level history as CSV (one row
// per round, one column per vertex). Requires KeepLevels.
func (r *Recorder) WriteLevelsCSV(w io.Writer) error {
	if !r.KeepLevels {
		return fmt.Errorf("trace: level history not recorded (set KeepLevels before running)")
	}
	bw := bufio.NewWriter(w)
	for i, row := range r.levels {
		fmt.Fprintf(bw, "%d", r.stats[i].Round)
		for _, l := range row {
			fmt.Fprintf(bw, ",%d", l)
		}
		fmt.Fprintln(bw)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace levels csv: %w", err)
	}
	return nil
}
