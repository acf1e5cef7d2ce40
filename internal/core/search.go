package core

import "fmt"

// This file is the knob surface of the approximate search (engine.go holds
// the mechanics). The approximate mode follows Iannucci et al.'s bubble
// decoder (ANCS'12): the beam B is the only knob, and two narrowings derived
// from it cut the tree the exact search expands:
//
//   - bubble narrowing: a level with no observations yet keeps only the
//     children of the W = max(2, B/8) cheapest parents, instead of every
//     child up to MaxCandidates;
//   - lookahead narrowing: an observed level keeps M = max(2, B/2) nodes —
//     half by path cost, half ranked by probing 2^ceil(k/2) of each node's
//     children at the next level.

// SearchMode selects the decoder's tree-search strategy.
type SearchMode uint8

const (
	// SearchExact is the full beam search of the HotNets'11 paper —
	// bit-identical to the decoder as it existed before approximate modes,
	// at every worker count and cost metric.
	SearchExact SearchMode = iota
	// SearchApprox applies bubble narrowing to unobserved levels and
	// lookahead narrowing to observed ones.
	SearchApprox
)

// String renders the mode the way the -search CLI flags spell it.
func (m SearchMode) String() string {
	switch m {
	case SearchExact:
		return "exact"
	case SearchApprox:
		return "approx"
	default:
		return fmt.Sprintf("SearchMode(%d)", uint8(m))
	}
}

// SearchConfig configures the decoder's tree search. The zero value is the
// exact search.
type SearchConfig struct {
	// Mode selects the strategy.
	Mode SearchMode
}

// String renders the config in the spelling ParseSearchConfig accepts.
func (c SearchConfig) String() string { return c.Mode.String() }

// expandTop is M, the number of nodes lookahead narrowing retains per
// observed level for a beam width b: half the beam, floored at 2 and capped
// at b. At B/2 the narrowing preserved session outcomes in the
// operating-point sweeps (B/4 costs real rate whenever the beam is not
// overprovisioned), while the next level expands half as many blocks.
func expandTop(b int) int {
	return min(max(2, b/2), b)
}

// bubbleParents is W, the number of cheapest parents whose children an
// unobserved level retains under the approximate search: an eighth of the
// beam, floored at 2 so at least two competing prefixes survive a punctured
// stretch. engine.run explains why this can cost rate.
func bubbleParents(b int) int {
	return max(2, b/8)
}

// ParseSearchConfig resolves a CLI spelling of a search mode: "" or "exact"
// for the exact search, "approx" for the approximate one.
func ParseSearchConfig(s string) (SearchConfig, error) {
	switch s {
	case "", "exact":
		return SearchConfig{}, nil
	case "approx":
		return SearchConfig{Mode: SearchApprox}, nil
	default:
		return SearchConfig{}, fmt.Errorf("core: unknown search mode %q (want exact or approx)", s)
	}
}

// SetSearchConfig installs a search strategy on the decoder. Switching
// strategies invalidates the incremental workspace — frontiers narrowed
// under one strategy do not describe another — so the next Decode rebuilds
// from the root. The zero SearchConfig restores the exact search, which is
// bit-identical to a decoder that never had an approximate mode installed.
func (d *BeamDecoder) SetSearchConfig(sc SearchConfig) error {
	if sc.Mode != SearchExact && sc.Mode != SearchApprox {
		return fmt.Errorf("core: unknown search mode %d", uint8(sc.Mode))
	}
	if sc == d.search {
		return nil
	}
	d.search = sc
	d.invalidateWorkspaces()
	return nil
}

// SearchConfig reports the installed search strategy.
func (d *BeamDecoder) SearchConfig() SearchConfig { return d.search }
