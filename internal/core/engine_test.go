package core

import (
	"testing"

	"spinal/internal/rng"
)

// TestSelectUnobservedMatchesStream is the oracle for the direct selection
// of truncated unobserved levels: for random parent frontiers — costs drawn
// from a small set so ties are common, keep rarely a multiple of the family
// size — selectUnobserved must return exactly the canonical nodes that
// hashing every child, streaming it through the selector and canonicalizing
// would, under both cost metrics.
func TestSelectUnobservedMatchesStream(t *testing.T) {
	p := Params{K: 4, C: 6, MessageBits: 40, Seed: DefaultSeed}
	d, err := NewBeamDecoder(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SetCostMetric(CostInt32); err != nil {
		t.Fatal(err)
	}
	obs, err := NewObservations(p.NumSegments())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(0x5e1ec7)
	t.Run("float64", func(t *testing.T) {
		checkSelectUnobserved(t, d.engF, &awgnCoster{d: d, obs: obs, tab: d.dimTab}, r,
			func(v int) float64 { return float64(v) * 0.25 })
	})
	t.Run("int32", func(t *testing.T) {
		checkSelectUnobserved(t, d.engI, &awgnQuantCoster{d: d, obs: obs, tab: d.quantTab}, r,
			func(v int) int32 { return int32(v) * 3 })
	})
}

func checkSelectUnobserved[C costValue, O costOps[C]](t *testing.T, e *engine[C, O], coster levelCoster[C], r *rng.Rand, costOf func(int) C) {
	t.Helper()
	d := e.d
	nseg := d.p.NumSegments()
	var ref, got selector[C]
	var fold foldScratch
	for trial := 0; trial < 300; trial++ {
		level := r.Intn(nseg)
		nSeg := 1 << uint(d.p.SegmentBits(level))
		parent := &e.root
		if level > 0 {
			parent = &frontier[C]{}
			n := 1 + r.Intn(40)
			for i := 0; i < n; i++ {
				parent.spine = append(parent.spine, r.Uint64())
				parent.cost = append(parent.cost, costOf(r.Intn(6)))
				parent.key = append(parent.key, packKey(int32(r.Intn(64)), uint16(r.Intn(nSeg))))
			}
		}
		total := parent.len() * nSeg
		if total < 2 {
			continue
		}
		keep := 1 + r.Intn(total-1) // truncated: fewer survivors than children
		coster.prepareLevel(level)
		if coster.numObs(level) != 0 {
			t.Fatalf("level %d has observations", level)
		}

		ref.reset(keep)
		bs, bl := make([]uint64, nSeg), make([]C, nSeg)
		streamed := e.streamRange(coster, parent, level, nSeg, 0, parent.len(), &ref, bs, bl, &fold)
		want := ref.canonical()

		got.reset(keep)
		expanded := e.selectUnobserved(parent, level, nSeg, keep, &got)
		have := got.canonical()

		if streamed != total || expanded != keep {
			t.Fatalf("trial %d: expanded %d (stream %d), want keep=%d (stream %d)", trial, expanded, streamed, keep, total)
		}
		if len(have) != len(want) {
			t.Fatalf("trial %d: %d nodes selected, stream kept %d", trial, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("trial %d (level %d, %d parents, keep %d): node %d = %+v, stream kept %+v",
					trial, level, parent.len(), keep, i, have[i], want[i])
			}
		}
	}
}
