package stab

import (
	"fmt"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// AvailabilityConfig describes a fault-storm experiment: faults recur
// every Period rounds for Window rounds, and availability is the
// fraction of rounds spent in a legal configuration.
type AvailabilityConfig struct {
	Graph    *graph.Graph
	Protocol beep.Protocol
	Seed     uint64
	// Fault is injected every Period rounds (after an initial
	// stabilization).
	Fault  Fault
	Period int
	// Window is the number of observed rounds (default 20·Period).
	Window int
	// WarmupBudget bounds the initial stabilization; 0 selects
	// core.DefaultMaxRounds.
	WarmupBudget int
	// Noise and Sleep harshen the channel for the whole run (zero
	// values are no-ops): the storm then combines transient state
	// corruption with ongoing communication faults, the compound regime
	// a deployed system actually faces.
	Noise beep.Noise
	Sleep beep.Sleep
}

// AvailabilityResult reports a fault-storm experiment.
type AvailabilityResult struct {
	// Availability is the fraction of observed rounds in a legal
	// configuration.
	Availability float64
	// Injections is the number of faults injected during the window.
	Injections int
	// MeanRecovery is the mean number of rounds from an injection to
	// the next legal configuration (only completed recoveries count).
	MeanRecovery float64
	// LongestOutage is the longest run of consecutive illegal rounds.
	LongestOutage int
}

// MeasureAvailability runs the fault storm and reports availability.
// Unlike MeasureRecovery it does not pause for re-stabilization: faults
// arrive on schedule whether or not the system has recovered, the
// regime a deployed system actually faces.
func MeasureAvailability(cfg AvailabilityConfig) (*AvailabilityResult, error) {
	if cfg.Graph == nil || cfg.Protocol == nil {
		return nil, fmt.Errorf("stab: nil graph or protocol")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("stab: fault period must be positive, got %d", cfg.Period)
	}
	window := cfg.Window
	if window <= 0 {
		window = 20 * cfg.Period
	}

	net, err := beep.NewNetwork(cfg.Graph, cfg.Protocol, cfg.Seed,
		beep.WithNoise(cfg.Noise), beep.WithSleep(cfg.Sleep))
	if err != nil {
		return nil, fmt.Errorf("stab: %w", err)
	}
	defer net.Close()
	net.RandomizeAll()
	var probe core.State // reused across rounds: incremental stop check
	if _, err := core.Stabilize(net, &probe, cfg.WarmupBudget); err != nil {
		return nil, err
	}

	faultSrc := rng.New(cfg.Seed ^ 0xa7a11ab111)
	res := &AvailabilityResult{}
	legalRounds := 0
	outage := 0
	pendingSince := -1 // round index of the oldest unrecovered injection
	recoverySum, recoveries := 0, 0

	for r := 0; r < window; r++ {
		if r%cfg.Period == 0 && cfg.Fault != nil {
			if err := cfg.Fault.Apply(net, faultSrc); err != nil {
				return nil, err
			}
			res.Injections++
			if pendingSince < 0 {
				pendingSince = r
			}
		}
		net.Step()
		if err := probe.Refresh(net); err != nil {
			return nil, err
		}
		if probe.Stabilized() {
			legalRounds++
			if outage > res.LongestOutage {
				res.LongestOutage = outage
			}
			outage = 0
			if pendingSince >= 0 {
				recoverySum += r - pendingSince + 1
				recoveries++
				pendingSince = -1
			}
		} else {
			outage++
		}
	}
	if outage > res.LongestOutage {
		res.LongestOutage = outage
	}
	res.Availability = float64(legalRounds) / float64(window)
	if recoveries > 0 {
		res.MeanRecovery = float64(recoverySum) / float64(recoveries)
	}
	return res, nil
}
