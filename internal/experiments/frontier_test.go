package experiments

import "testing"

// TestFrontierGate checks the headline claim of the approximate search end
// to end, at the frontier scenario's default operating point (B=32, m=96,
// striped schedule, 10 dB): approx must reach >=95% of the exact mode's
// achieved rate while expanding <=40% of the exact mode's tree nodes, on
// byte-identical per-trial symbol streams. The comparison itself is
// deterministic — seeds derive from the trial index — so this is a fixed
// property of the decoder, not a statistical bound.
func TestFrontierGate(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier gate needs enough trials for a stable rate ratio")
	}
	cfg := Figure2Config()
	cfg.BeamWidth = 32
	cfg.MessageBits = 96
	cfg.MaxPasses = 150
	cfg.Trials = 10
	pts, err := FrontierComparison(cfg, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Mode != "exact" || pts[1].Mode != "approx" {
		t.Fatalf("unexpected point layout: %+v", pts)
	}
	if pts[0].Delivered == 0 {
		t.Fatal("exact mode delivered nothing at 10 dB within the pass budget")
	}
	p := pts[1]
	t.Logf("approx rate=%.3f (%.3fx exact) nodes=%d (%.3fx exact) delivered=%d/%d",
		p.Rate, p.RateVsExact, p.Nodes, p.NodesVsExact, p.Delivered, p.Trials)
	if p.RateVsExact < 0.95 || p.NodesVsExact > 0.40 {
		t.Errorf("approx reached %.3fx the exact rate at %.3fx the exact nodes, want >=0.95x at <=0.40x",
			p.RateVsExact, p.NodesVsExact)
	}
}
