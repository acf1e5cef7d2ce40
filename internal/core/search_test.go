package core

import (
	"fmt"
	"strings"
	"testing"

	"spinal/internal/rng"
)

// approxSearch is the approximate search config the tests exercise.
var approxSearch = SearchConfig{Mode: SearchApprox}

// TestParseSearchConfig checks the two CLI spellings, their round-trip
// through String, and that every other spelling — including the retired
// gap/lookahead modes and their ":arg" forms — is rejected with an error
// that names the valid modes.
func TestParseSearchConfig(t *testing.T) {
	good := []struct {
		in   string
		want SearchConfig
	}{
		{"", SearchConfig{}},
		{"exact", SearchConfig{}},
		{"approx", approxSearch},
	}
	for _, tc := range good {
		got, err := ParseSearchConfig(tc.in)
		if err != nil {
			t.Errorf("ParseSearchConfig(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSearchConfig(%q) = %+v, want %+v", tc.in, got, tc.want)
			continue
		}
		if back, err := ParseSearchConfig(got.String()); err != nil || back != got {
			t.Errorf("round trip of %q through %q: %+v, %v", tc.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"fuzzy", "gap", "gap:2", "lookahead", "lookahead:6", "approx:3", "exact:1", "Approx"} {
		_, err := ParseSearchConfig(bad)
		if err == nil {
			t.Errorf("ParseSearchConfig(%q) unexpectedly succeeded", bad)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "exact") || !strings.Contains(msg, "approx") {
			t.Errorf("ParseSearchConfig(%q) error %q does not name the valid modes", bad, msg)
		}
	}
}

// TestSetSearchConfigNormalizes checks that SetSearchConfig installs both
// modes, that exact resets to the zero config, and that an unknown mode is
// rejected without changing the installed strategy.
func TestSetSearchConfigNormalizes(t *testing.T) {
	dec, err := NewBeamDecoder(exactPinParams(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	if err := dec.SetSearchConfig(approxSearch); err != nil {
		t.Fatal(err)
	}
	if got := dec.SearchConfig(); got != approxSearch {
		t.Fatalf("installed approx, got %+v", got)
	}
	if err := dec.SetSearchConfig(SearchConfig{Mode: SearchMode(9)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if got := dec.SearchConfig(); got != approxSearch {
		t.Fatalf("rejected mode changed the installed config to %+v", got)
	}
	if err := dec.SetSearchConfig(SearchConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := dec.SearchConfig(); got != (SearchConfig{}) {
		t.Fatalf("exact did not reset to the zero config: %+v", got)
	}
}

// TestApproxNarrowingWidths pins the two derived widths of the approximate
// search: lookahead keeps M = max(2, B/2) nodes (never more than B) and the
// bubble keeps the children of W = max(2, B/8) parents.
func TestApproxNarrowingWidths(t *testing.T) {
	for _, tc := range []struct{ b, m, w int }{
		{1, 1, 2}, {2, 2, 2}, {4, 2, 2}, {16, 8, 2}, {32, 16, 4}, {64, 32, 8}, {100, 50, 12},
	} {
		if got := expandTop(tc.b); got != tc.m {
			t.Errorf("expandTop(%d) = %d, want %d", tc.b, got, tc.m)
		}
		if got := bubbleParents(tc.b); got != tc.w {
			t.Errorf("bubbleParents(%d) = %d, want %d", tc.b, got, tc.w)
		}
	}
}

// TestDecodeWithUnobservedMiddleLevel checks that a decode can succeed
// while a level has no observations at all: the deeper levels' symbols
// depend on the unobserved segment through the spine hash chain, so they
// pin it down. This is why bubble narrowing is an approximation and not a
// free cut — the decode does not wait for the level's own symbols, so
// narrowing it can drop the true path. Noiselessly the true parent is the
// cheapest, so the bubble keeps it and both modes recover the message.
func TestDecodeWithUnobservedMiddleLevel(t *testing.T) {
	p := exactPinParams()
	hole := p.NumSegments() / 2
	for _, search := range []SearchConfig{{}, approxSearch} {
		msg, _ := awgnPinStream(t, 3)
		enc, err := NewEncoder(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewBeamDecoder(p, exactPinBeam)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.SetSearchConfig(search); err != nil {
			t.Fatal(err)
		}
		obs, err := NewObservations(p.NumSegments())
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < p.NumSegments(); s++ {
				if s == hole {
					continue
				}
				if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, enc.Symbol(s, pass)); err != nil {
					t.Fatal(err)
				}
			}
		}
		out, err := dec.Decode(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualMessages(out.Message, msg, p.MessageBits) {
			t.Errorf("mode %v: message with unobserved level %d did not decode", search, hole)
		}
		dec.Close()
	}
}

// TestApproxModesRoundTripNoiseless checks the fundamental contract of the
// approximate search under both cost metrics: two noiseless passes still
// decode exactly. The true path has zero cost at every level, so the
// lookahead ranking, which keeps the cheapest half by path cost, cannot
// demote it.
func TestApproxModesRoundTripNoiseless(t *testing.T) {
	p := exactPinParams()
	for _, metric := range []CostMetric{CostFloat64, CostInt32} {
		msg, _ := awgnPinStream(t, 0)
		enc, err := NewEncoder(p, msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewBeamDecoder(p, exactPinBeam)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.SetCostMetric(metric); err != nil {
			t.Fatal(err)
		}
		if err := dec.SetSearchConfig(approxSearch); err != nil {
			t.Fatal(err)
		}
		obs, err := NewObservations(p.NumSegments())
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < p.NumSegments(); s++ {
				if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, enc.Symbol(s, pass)); err != nil {
					t.Fatal(err)
				}
			}
			out, err := dec.Decode(obs)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 1 && !EqualMessages(out.Message, msg, p.MessageBits) {
				t.Errorf("metric %v: noiseless round trip failed", metric)
			}
		}
		dec.Close()
	}
}

// TestApproxDeterministicAcrossWorkers checks that approximate decodes, like
// exact ones, are bit-identical at every worker count under both cost
// metrics: all narrowing happens in the single-threaded post-selection
// section, and the sharded cost folds share no scratch.
func TestApproxDeterministicAcrossWorkers(t *testing.T) {
	p := exactPinParams()
	for _, metric := range []CostMetric{CostFloat64, CostInt32} {
		var ref []string
		for _, workers := range exactPinWorkers() {
			dec, err := NewBeamDecoder(p, exactPinBeam)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.SetCostMetric(metric); err != nil {
				t.Fatal(err)
			}
			if err := dec.SetSearchConfig(approxSearch); err != nil {
				t.Fatal(err)
			}
			dec.SetParallelism(workers)
			var got []string
			for trial := 0; trial < 2; trial++ {
				_, byPass := awgnPinStream(t, trial)
				obs, err := NewObservations(p.NumSegments())
				if err != nil {
					t.Fatal(err)
				}
				for pass, row := range byPass {
					for s, y := range row {
						if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, y); err != nil {
							t.Fatal(err)
						}
					}
					out, err := dec.Decode(obs)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, fmt.Sprintf("%x/%v/%d/%d",
						out.Message, out.Cost, out.NodesExpanded, out.NodesRefreshed))
				}
			}
			dec.Close()
			if ref == nil {
				ref = got
				continue
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("metric %v: workers=%d diverged at attempt %d:\n%s\nvs\n%s",
						metric, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestApproxIncrementalMatchesScratch checks that the approximate search
// composes with incremental reuse exactly: resumed attempts produce the same
// messages and costs as from-scratch ones, on a fully observed and on a
// striped (partially observed, so bubble-narrowed) schedule.
func TestApproxIncrementalMatchesScratch(t *testing.T) {
	p := exactPinParams()
	for _, striped := range []bool{false, true} {
		var fps [2][]string
		for vi, incremental := range []bool{true, false} {
			dec, err := NewBeamDecoder(p, exactPinBeam)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.SetSearchConfig(approxSearch); err != nil {
				t.Fatal(err)
			}
			dec.SetIncremental(incremental)
			dec.SetParallelism(1)
			for trial := 0; trial < 2; trial++ {
				_, byPass := awgnPinStream(t, trial)
				obs, err := NewObservations(p.NumSegments())
				if err != nil {
					t.Fatal(err)
				}
				for pass, row := range byPass {
					// The striped variant adds every fourth spine per attempt,
					// so the first pass's attempts see unobserved levels.
					stripes := 1
					if striped {
						stripes = 4
					}
					for q := 0; q < stripes; q++ {
						for s, y := range row {
							if s%stripes != q {
								continue
							}
							if err := obs.Add(SymbolPos{Spine: s, Pass: pass}, y); err != nil {
								t.Fatal(err)
							}
						}
						out, err := dec.Decode(obs)
						if err != nil {
							t.Fatal(err)
						}
						fps[vi] = append(fps[vi], fmt.Sprintf("%x/%v", out.Message, out.Cost))
					}
				}
			}
			dec.Close()
		}
		for i := range fps[0] {
			if fps[0][i] != fps[1][i] {
				t.Fatalf("striped=%v: incremental diverged from scratch at attempt %d: %s vs %s",
					striped, i, fps[0][i], fps[1][i])
			}
		}
	}
}

// approxSessionStream extends the AWGN pin stream to a longer pass budget so
// session-level tests have headroom: an approximation that costs one extra
// pass still completes instead of failing outright.
func approxSessionStream(t *testing.T, trial, passes int) (msg []byte, flat []complex128) {
	t.Helper()
	p := exactPinParams()
	msg = RandomMessage(rng.New(uint64(trial+1)*0x9e3779b9), p.MessageBits)
	enc, err := NewEncoder(p, msg)
	if err != nil {
		t.Fatal(err)
	}
	noise := rng.New(uint64(trial+1) * 0xbb67ae85)
	for pass := 0; pass < passes; pass++ {
		for s := 0; s < p.NumSegments(); s++ {
			flat = append(flat, enc.Symbol(s, pass)+
				complex(0.22*noise.NormFloat64(), 0.22*noise.NormFloat64()))
		}
	}
	return msg, flat
}

// replayChannel hands out a recorded received stream in order, whatever was
// transmitted.
type replayChannel struct {
	noiseless
	flat []complex128
	next int
}

func (r *replayChannel) CorruptBlock(dst, src []complex128) {
	r.next += copy(dst, r.flat[r.next:r.next+len(src)])
}

// runApproxSession runs one fixed-seed session under a search config; the
// session-level search tests compare its transcript across configs.
func runApproxSession(t *testing.T, trial, passes int, search SearchConfig) *Result {
	t.Helper()
	p := exactPinParams()
	msg, flat := approxSessionStream(t, trial, passes)
	cfg := SessionConfig{
		Params: p, BeamWidth: exactPinBeam, Parallelism: 1,
		MaxSymbols: len(flat), Search: search,
		Attempts: AttemptEveryPass{},
	}
	res, err := RunChannelSession(cfg, msg, &replayChannel{flat: flat}, GenieVerifier(msg, p.MessageBits))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestApproxSavesNodes checks the point of the whole exercise: on a noisy
// multi-pass session, the approximate search expands fewer nodes than the
// exact search while still delivering the message.
func TestApproxSavesNodes(t *testing.T) {
	run := func(search SearchConfig) *Result { return runApproxSession(t, 1, 8, search) }
	exact := run(SearchConfig{})
	if !exact.Success {
		t.Fatal("exact session failed; pick a better operating point")
	}
	res := run(approxSearch)
	if !res.Success {
		t.Fatal("approx session failed")
	}
	if res.NodesExpanded >= exact.NodesExpanded {
		t.Errorf("approx expanded %d nodes, exact %d — no savings", res.NodesExpanded, exact.NodesExpanded)
	}
}

// TestLeasedDecoderMatchesFreshAcrossMetricAndSearch is the satellite pool
// property: a pooled decoder that previously ran under any (metric, search)
// tuning must, after Release and re-Lease, decode exactly like a freshly
// constructed decoder under every (metric, search) combination.
func TestLeasedDecoderMatchesFreshAcrossMetricAndSearch(t *testing.T) {
	p := exactPinParams()
	pool := NewDecoderPool(2)
	searches := []SearchConfig{{}, approxSearch}
	for _, metric := range []CostMetric{CostFloat64, CostInt32} {
		for _, search := range searches {
			lease, err := pool.Lease(p, exactPinBeam)
			if err != nil {
				t.Fatal(err)
			}
			if got := lease.Dec.SearchConfig(); got != (SearchConfig{}) {
				t.Fatalf("leased decoder came back with search config %+v", got)
			}
			if got := lease.Dec.CostMetric(); got != CostFloat64 {
				t.Fatalf("leased decoder came back with metric %v", got)
			}
			if err := lease.Dec.SetCostMetric(metric); err != nil {
				t.Fatal(err)
			}
			if err := lease.Dec.SetSearchConfig(search); err != nil {
				t.Fatal(err)
			}
			lease.Dec.SetParallelism(1)

			fresh, err := NewBeamDecoder(p, exactPinBeam)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.SetCostMetric(metric); err != nil {
				t.Fatal(err)
			}
			if err := fresh.SetSearchConfig(search); err != nil {
				t.Fatal(err)
			}
			fresh.SetParallelism(1)
			freshObs, err := NewObservations(p.NumSegments())
			if err != nil {
				t.Fatal(err)
			}

			_, byPass := awgnPinStream(t, 2)
			for pass, row := range byPass {
				for s, y := range row {
					if err := lease.Obs.Add(SymbolPos{Spine: s, Pass: pass}, y); err != nil {
						t.Fatal(err)
					}
					if err := freshObs.Add(SymbolPos{Spine: s, Pass: pass}, y); err != nil {
						t.Fatal(err)
					}
				}
				got, err := lease.Dec.Decode(lease.Obs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Decode(freshObs)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost || got.NodesExpanded != want.NodesExpanded ||
					got.NodesRefreshed != want.NodesRefreshed ||
					!EqualMessages(got.Message, want.Message, p.MessageBits) {
					t.Fatalf("metric %v search %v pass %d: leased diverged from fresh: %+v vs %+v",
						metric, search, pass, got, want)
				}
			}
			fresh.Close()
			lease.Release()
		}
	}
}
