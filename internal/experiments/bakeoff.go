package experiments

import (
	"fmt"

	"spinal/internal/conv"
	"spinal/internal/crc"
	"spinal/internal/fountain"
	"spinal/internal/harq"
	"spinal/internal/impair"
	"spinal/internal/ldpc"
	"spinal/internal/modem"
	"spinal/internal/rng"
	"spinal/internal/sim"
)

// This file is the cross-code bake-off: spinal versus the fixed-rate and
// conventionally-rateless baselines (LDPC, convolutional/Viterbi, LDPC
// hybrid ARQ) over the same stacked impairment profiles on identical
// per-trial seeds. Every scheme facing profile P in trial t sees a pipeline
// built from the same seed — the same fading trace, the same interference
// spikes, the same erasure schedule — so differences in goodput are the
// codes', not the noise draw's.

// BakeoffProfile names one stacked impairment under test.
type BakeoffProfile struct {
	Name string
	Spec string
}

// DefaultBakeoffProfiles returns the two stacked profiles the bakeoff
// scenario runs by default: bursty gating with interference, and fading
// with a mid-message SNR collapse plus erasures.
func DefaultBakeoffProfiles() []BakeoffProfile {
	return []BakeoffProfile{
		{Name: "burst+spike", Spec: "ge(good=16,bad=3,dgood=350,dbad=120)|spike(prob=0.02,dwell=25,db=-3)"},
		{Name: "fade+ramp+erase", Spec: "rayleigh(avg=16,tc=96)|ramp(from=30,to=10,over=3000)|erase(p=0.01,block=24)"},
	}
}

// BakeoffConfig describes the bake-off run.
type BakeoffConfig struct {
	// Spinal is the spinal operating point; its Seed is also the base seed
	// every scheme's per-trial streams derive from.
	Spinal SpinalConfig
	// Trials is the number of messages/frames per (profile, scheme) cell.
	Trials int
	// Profiles are the impairment stacks; empty selects the defaults.
	Profiles []BakeoffProfile
	// TrialWorkers is the sim.Run worker-pool size; zero means GOMAXPROCS.
	TrialWorkers int
}

// BakeoffPoint is one (profile, scheme) cell of the bake-off.
type BakeoffPoint struct {
	Profile string
	Scheme  string
	// Goodput is delivered information bits per symbol.
	Goodput float64
	// Conf95 is the half-width of a 95% CI on the per-frame rate mean.
	Conf95 float64
	// Delivered counts frames/messages recovered exactly.
	Delivered int
	Trials    int
}

// profileSeed gives each profile its own seed space, folded FNV-style from
// the profile name so adding a profile never perturbs the others.
func profileSeed(seed uint64, name string) uint64 {
	h := seed
	for _, c := range name {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// bakeoffPoint folds per-trial outcomes into one cell.
func bakeoffPoint(profile, scheme string, trials []frameTrial) BakeoffPoint {
	pt := throughputPoint(0, 0, trials)
	delivered := 0
	for _, tr := range trials {
		if tr.ok {
			delivered++
		}
	}
	return BakeoffPoint{
		Profile:   profile,
		Scheme:    scheme,
		Goodput:   pt.Throughput,
		Conf95:    pt.Conf95,
		Delivered: delivered,
		Trials:    len(trials),
	}
}

// Bakeoff runs every scheme over every profile and returns the cells in
// (profile, scheme) order: spinal first, then the baselines.
func Bakeoff(cfg BakeoffConfig) ([]BakeoffPoint, error) {
	if cfg.Trials < 1 {
		cfg.Trials = 40
	}
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = DefaultBakeoffProfiles()
	}
	scfg := cfg.Spinal.withDefaults()
	scfg.Trials = cfg.Trials
	scfg.TrialWorkers = cfg.TrialWorkers

	var out []BakeoffPoint
	for _, prof := range profiles {
		spec, err := impair.ParseAny(prof.Spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: profile %q: %w", prof.Name, err)
		}
		if len(spec.Stages) == 0 {
			return nil, fmt.Errorf("experiments: profile %q is empty", prof.Name)
		}
		base := profileSeed(scfg.Seed, prof.Name)

		// Spinal: the genie rate over the pipeline, per-trial seeds from the
		// profile base.
		pcfg := scfg
		pcfg.Seed = base
		spinalPt, err := spinalRateOverSpec(pcfg, spec)
		if err != nil {
			return nil, err
		}
		delivered := pcfg.Trials - spinalPt.Failures
		out = append(out, BakeoffPoint{
			Profile: prof.Name, Scheme: "spinal",
			Goodput: spinalPt.Rate, Conf95: spinalPt.Conf95,
			Delivered: delivered, Trials: pcfg.Trials,
		})

		// The baselines face pipelines built from the same per-trial seeds.
		for _, scheme := range []string{"ldpc", "conv", "harq", "fountain"} {
			trials, err := bakeoffBaseline(scheme, spec, base, cfg.Trials, cfg.TrialWorkers)
			if err != nil {
				return nil, err
			}
			out = append(out, bakeoffPoint(prof.Name, scheme, trials))
		}
	}
	return out, nil
}

// bakeoffBaseline runs one fixed-rate or HARQ baseline over the profile's
// per-trial pipelines. Each frame demodulates with the pipeline's variance
// estimate sampled at frame start — exactly the stale channel-state
// assumption the paper argues fixed-rate systems are stuck with when
// conditions shift mid-frame.
func bakeoffBaseline(scheme string, spec *impair.Spec, base uint64, trials, trialWorkers int) ([]frameTrial, error) {
	runner := sim.Runner{Workers: trialWorkers}
	switch scheme {
	case "ldpc":
		code, err := ldpc.NewWiFiLike(ldpc.Rate12)
		if err != nil {
			return nil, err
		}
		mod, err := modem.ByName("QAM-4")
		if err != nil {
			return nil, err
		}
		symbolsPerFrame := code.N() / mod.BitsPerSymbol()
		return sim.Run(runner, trials, func(w *sim.Worker, trial int) (frameTrial, error) {
			decAny, err := w.Stash("bakeoff-ldpc", func() (any, error) {
				return ldpc.NewDecoder(code, ldpc.DefaultIterations)
			})
			if err != nil {
				return frameTrial{}, err
			}
			dec := decAny.(*ldpc.Decoder)
			pl, err := spec.Build(pipelineSeed(base, uint64(trial)))
			if err != nil {
				return frameTrial{}, err
			}
			src := rng.New(base ^ (0x9e3779b97f4a7c15 * uint64(trial+1)))
			info := make([]byte, code.K())
			for i := range info {
				info[i] = byte(src.Intn(2))
			}
			cw, err := code.Encode(info)
			if err != nil {
				return frameTrial{}, err
			}
			syms, err := mod.Modulate(cw)
			if err != nil {
				return frameTrial{}, err
			}
			sigma2 := staleVariance(pl)
			pl.CorruptBlock(syms, syms)
			llr := mod.Demodulate(syms, sigma2)
			res, err := dec.Decode(llr)
			if err != nil {
				return frameTrial{}, err
			}
			ok := res.Converged
			if ok {
				for i := range info {
					if res.Info[i] != info[i] {
						ok = false
						break
					}
				}
			}
			bits := 0
			if ok {
				bits = code.K()
			}
			return frameTrial{bits: bits, symbols: symbolsPerFrame, ok: ok}, nil
		})
	case "conv":
		const frameBits = 288
		probeCode, err := conv.NewPunctured("1/2")
		if err != nil {
			return nil, err
		}
		mod, err := modem.ByName("BPSK")
		if err != nil {
			return nil, err
		}
		probe, err := probeCode.Encode(make([]byte, frameBits))
		if err != nil {
			return nil, err
		}
		codedPerFrame := len(probe)
		for codedPerFrame%mod.BitsPerSymbol() != 0 {
			codedPerFrame++
		}
		symbolsPerFrame := codedPerFrame / mod.BitsPerSymbol()
		return sim.Run(runner, trials, func(w *sim.Worker, trial int) (frameTrial, error) {
			codecAny, err := w.Stash("bakeoff-conv", func() (any, error) {
				return conv.NewPunctured("1/2")
			})
			if err != nil {
				return frameTrial{}, err
			}
			codec := codecAny.(*conv.Code)
			pl, err := spec.Build(pipelineSeed(base, uint64(trial)))
			if err != nil {
				return frameTrial{}, err
			}
			src := rng.New(base ^ (0x9e3779b97f4a7c15 * uint64(trial+1)))
			info := make([]byte, frameBits)
			for i := range info {
				info[i] = byte(src.Intn(2))
			}
			coded, err := codec.Encode(info)
			if err != nil {
				return frameTrial{}, err
			}
			for len(coded)%mod.BitsPerSymbol() != 0 {
				coded = append(coded, 0)
			}
			syms, err := mod.Modulate(coded)
			if err != nil {
				return frameTrial{}, err
			}
			sigma2 := staleVariance(pl)
			pl.CorruptBlock(syms, syms)
			llr := mod.Demodulate(syms, sigma2)
			decoded, err := codec.Decode(llr[:codec.CodedLength(frameBits)], frameBits)
			if err != nil {
				return frameTrial{}, err
			}
			ok := true
			for i := range info {
				if decoded[i] != info[i] {
					ok = false
					break
				}
			}
			bits := 0
			if ok {
				bits = frameBits
			}
			return frameTrial{bits: bits, symbols: symbolsPerFrame, ok: ok}, nil
		})
	case "harq":
		if _, err := harq.New(harq.Config{Rate: ldpc.Rate12, Modulation: "QAM-4"}); err != nil {
			return nil, err
		}
		return sim.Run(runner, trials, func(w *sim.Worker, trial int) (frameTrial, error) {
			schemeAny, err := w.Stash("bakeoff-harq", func() (any, error) {
				return harq.New(harq.Config{Rate: ldpc.Rate12, Modulation: "QAM-4"})
			})
			if err != nil {
				return frameTrial{}, err
			}
			sch := schemeAny.(*harq.Scheme)
			pl, err := spec.Build(pipelineSeed(base, uint64(trial)))
			if err != nil {
				return frameTrial{}, err
			}
			src := rng.New(base ^ (0x9e3779b97f4a7c15 * uint64(trial+1)))
			res, err := sch.RunFrame(pl, staleVariance(pl), src)
			if err != nil {
				return frameTrial{}, err
			}
			bits := 0
			if res.Delivered {
				bits = sch.InfoBits()
			}
			return frameTrial{bits: bits, symbols: res.Symbols, ok: res.Delivered}, nil
		})
	case "fountain":
		// Rateless at the packet level rather than the symbol level: LT
		// symbols stream until the peeling decoder completes, but each
		// symbol is an all-or-nothing CRC-guarded packet — a corrupted
		// packet contributes nothing, where spinal's decoder still extracts
		// information from every noisy symbol.
		const (
			ltBlocks    = 16
			ltBlockSize = 8
			maxOverhead = 5 // cap transmissions at maxOverhead * ltBlocks symbols
		)
		mod, err := modem.ByName("QAM-4")
		if err != nil {
			return nil, err
		}
		if _, err := fountain.NewLT(ltBlocks, ltBlockSize, base); err != nil {
			return nil, err
		}
		// data + CRC32 trailer, bits-as-bytes, QAM-4 channel symbols per packet.
		packetBytes := ltBlockSize + 4
		packetSymbols := packetBytes * 8 / mod.BitsPerSymbol()
		return sim.Run(runner, trials, func(w *sim.Worker, trial int) (frameTrial, error) {
			ltAny, err := w.Stash("bakeoff-fountain", func() (any, error) {
				return fountain.NewLT(ltBlocks, ltBlockSize, base)
			})
			if err != nil {
				return frameTrial{}, err
			}
			lt := ltAny.(*fountain.LT)
			pl, err := spec.Build(pipelineSeed(base, uint64(trial)))
			if err != nil {
				return frameTrial{}, err
			}
			src := rng.New(base ^ (0x9e3779b97f4a7c15 * uint64(trial+1)))
			source := make([][]byte, ltBlocks)
			for i := range source {
				source[i] = make([]byte, ltBlockSize)
				for j := range source[i] {
					source[i][j] = byte(src.Intn(256))
				}
			}
			dec := fountain.NewDecoder(lt)
			sent := 0
			bits := make([]byte, packetBytes*8)
			packed := make([]byte, packetBytes)
			for id := uint32(0); !dec.Done() && sent < maxOverhead*ltBlocks; id++ {
				payload, err := lt.EncodeSymbol(id, source)
				if err != nil {
					return frameTrial{}, err
				}
				pkt := crc.Append32(payload)
				for i, b := range pkt {
					for j := 0; j < 8; j++ {
						bits[i*8+j] = (b >> uint(7-j)) & 1
					}
				}
				syms, err := mod.Modulate(bits)
				if err != nil {
					return frameTrial{}, err
				}
				sigma2 := staleVariance(pl)
				pl.CorruptBlock(syms, syms)
				llr := mod.Demodulate(syms, sigma2)
				for i := range packed {
					packed[i] = 0
					for j := 0; j < 8; j++ {
						// Positive LLR favours bit 0.
						if llr[i*8+j] <= 0 {
							packed[i] |= 1 << uint(7-j)
						}
					}
				}
				sent++
				if data, ok := crc.Verify32(packed); ok {
					if err := dec.AddSymbol(id, data); err != nil {
						return frameTrial{}, err
					}
				}
			}
			ok := dec.Done()
			if ok {
				for i, blk := range dec.Source() {
					for j := range blk {
						if blk[j] != source[i][j] {
							ok = false
						}
					}
				}
			}
			infoBits := 0
			if ok {
				infoBits = ltBlocks * ltBlockSize * 8
			}
			return frameTrial{bits: infoBits, symbols: sent * packetSymbols, ok: ok}, nil
		})
	default:
		return nil, fmt.Errorf("experiments: unknown bakeoff scheme %q", scheme)
	}
}

// staleVariance is the noise-variance estimate a fixed-rate receiver
// demodulates a frame with: the pipeline's instantaneous variance at frame
// start, floored so a momentarily quiet channel does not produce infinite
// LLRs. It goes stale the moment the stack shifts mid-frame, which is the
// point of the comparison.
func staleVariance(pl *impair.Pipeline) float64 {
	v := pl.NoiseVariance()
	if v < 1e-9 {
		v = 1e-9
	}
	return v
}
