package exp

import (
	"io"
	"strings"
	"testing"
)

// smokeConfig is a tiny configuration so every experiment's full code
// path executes in test time.
func smokeConfig(out io.Writer) Config {
	return Config{Seed: 1, Trials: 1, Out: out}
}

func TestRunF1(t *testing.T) {
	var sb strings.Builder
	if err := RunF1(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 1", "activation", "0.5", "p(ℓ)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("F1 output missing %q:\n%s", want, out)
		}
	}
}

// miniSweep builds a sweepSpec pointing at the smallest sizes so E1-E3
// logic is exercised quickly.
func TestRunSweepSmoke(t *testing.T) {
	var sb strings.Builder
	cfg := smokeConfig(&sb)
	cfg.Trials = 1
	for _, runner := range []struct {
		name string
		run  func(Config) error
	}{
		{"E1", RunE1}, {"E2", RunE2}, {"E3", RunE3},
	} {
		sb.Reset()
		// Shrink the sweep via a config whose sizes() we cannot override,
		// so instead call the experiment as-is only in -short mode off.
		if testing.Short() {
			t.Skip("sweep smoke skipped in -short")
		}
		cfgSmall := cfg
		if err := runner.run(cfgSmall); err != nil {
			t.Fatalf("%s: %v", runner.name, err)
		}
		out := sb.String()
		if !strings.Contains(out, "rounds(mean)") || !strings.Contains(out, "cycle") {
			t.Fatalf("%s output malformed:\n%s", runner.name, out)
		}
		if !strings.Contains(out, "spread of rounds/log2(n)") {
			t.Fatalf("%s missing scaling notes:\n%s", runner.name, out)
		}
	}
}

func TestRunE4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE4(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E4a", "E4b", "jeavons", "alg1-recovered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E4 output missing %q", want)
		}
	}
}

func TestRunE5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE5(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "afek-style") {
		t.Fatalf("E5 output malformed:\n%s", sb.String())
	}
}

func TestRunE6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE6(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"recovery", "closure", "random-", "claim-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E6 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE7(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E7a", "E7b", "P[X >= k]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E7 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE8(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E8a", "E8b", "E8c", "E8d", "E8e", "luby-rounds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E8 output missing %q", want)
		}
	}
}

func TestSurvivalTableEmpty(t *testing.T) {
	tab := survivalTable("t", "x", nil, []float64{0, 1})
	if len(tab.Rows) != 0 || len(tab.Notes) == 0 {
		t.Fatalf("empty survival table %+v", tab)
	}
}

func TestSurvivalTableCounts(t *testing.T) {
	tab := survivalTable("t", "x", []float64{0, 1, 2, 3}, []float64{0, 2, 5})
	if tab.Rows[0][2] != "4" || tab.Rows[1][2] != "2" || tab.Rows[2][2] != "0" {
		t.Fatalf("survival counts %+v", tab.Rows)
	}
}

func TestRunE9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	cfg := smokeConfig(&sb)
	if err := RunE9(cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"listening noise", "func-stab", "member-flips"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E9 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE10(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"zero-knowledge", "oracle-rounds", "adaptive-ℓmax"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E10 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE11(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E11a", "E11b", "stable/fresh", "stable/adversarial", "diam"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E11 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE12(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"duty-cycling", "func-stab", "member-flips"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E12 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE13Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE13(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"energy", "steady-beeps/round", "blind"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E13 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE14(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"availability", "longest-outage", "mean-recovery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E14 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE15(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"topology churn", "flap", "growth", "crash", "partition-heal", "adjust"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E15 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Fatalf("E15 failed to recover within the O(log n) budget:\n%s", out)
	}
}

func TestRunE16Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	if err := RunE16(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"correct-subgraph", "jammer", "mute", "hubs", "stable-frac"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E16 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE21Smoke(t *testing.T) {
	var sb strings.Builder
	if err := RunE21(smokeConfig(&sb)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"work-frac", "tail-frac", "ms", "gnp-avg8", "4096"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E21 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	var sb strings.Builder
	cfg := smokeConfig(&sb)
	if err := RunAll(cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range IDs() {
		if !strings.Contains(out, "=== "+id+" ") {
			t.Fatalf("RunAll output missing header for %s", id)
		}
	}
}
