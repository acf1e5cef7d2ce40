package main

import (
	"fmt"

	"spinal/internal/rng"
	"spinal/internal/sim"
)

// input is one generated message: its payload and the seed its other
// randomness (channel noise) derives from.
type input struct {
	payload []byte
	seed    uint64
}

// flowInputs generates n messages split into per-flow decks, all from the
// workload seed. sim.GenerateWorkload assigns each message its flow and its
// seed, from which the payload bytes derive. Sizes are dealt from the same
// SizeClass mix, per flow, in rounds that hold every class exactly Weight
// times in a seed-shuffled order: independent draws let the share of the
// expensive class (a 64-bit codec message, a 128-byte link chunk) swing
// between seeds by more than the metrics' bounds.
func flowInputs(seed uint64, flows, n int, sizes []sim.SizeClass) ([][]input, error) {
	events, err := sim.GenerateWorkload(sim.WorkloadConfig{
		Seed: seed, Flows: flows, Messages: n, Rate: 1, Sizes: sizes,
	})
	if err != nil {
		return nil, err
	}
	perFlow := make([][]uint64, flows)
	for i, ev := range events {
		perFlow[ev.Flow-1] = append(perFlow[ev.Flow-1], ev.Seed(seed, i))
	}
	decks := make([][]input, flows)
	for f, seeds := range perFlow {
		if len(seeds) == 0 {
			return nil, fmt.Errorf("flow %d drew no messages", f+1)
		}
		dealt := dealSizes(rng.New(seed^uint64(f+1)*0xbb67ae8584caa73b), sizes, len(seeds))
		for i, s := range seeds {
			p := make([]byte, dealt[i])
			rng.New(s).Bytes(p)
			decks[f] = append(decks[f], input{payload: p, seed: s})
		}
	}
	return decks, nil
}

// dealSizes deals n message sizes in rounds; each round holds every class
// Weight times (weights are whole numbers), shuffled by src.
func dealSizes(src *rng.Rand, sizes []sim.SizeClass, n int) []int {
	var round []int
	for _, s := range sizes {
		for k := 0; k < int(s.Weight); k++ {
			round = append(round, s.Bytes)
		}
	}
	out := make([]int, 0, n+len(round))
	for len(out) < n {
		for _, j := range src.Perm(len(round)) {
			out = append(out, round[j])
		}
	}
	return out[:n]
}
