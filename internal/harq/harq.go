// Package harq implements a hybrid-ARQ rateless baseline: an LDPC codeword is
// retransmitted round after round and the receiver combines the soft
// information (LLR addition, i.e. Chase combining) across rounds, decoding
// after each. Related work in §2 of the paper points to exactly this family —
// incremental-redundancy / hybrid ARQ built from fixed LDPC codes — as the
// conventional way to get rateless behaviour out of rated codes, so this
// package provides the comparator for the spinal code's finer-grained
// ratelessness.
package harq

import (
	"fmt"

	"spinal/internal/channel"
	"spinal/internal/ldpc"
	"spinal/internal/modem"
	"spinal/internal/rng"
)

// Config describes a hybrid-ARQ scheme built from one fixed LDPC code and
// modulation.
type Config struct {
	// Rate selects the LDPC mother code (648-bit family).
	Rate ldpc.Rate
	// Modulation names the constellation used for every round.
	Modulation string
	// MaxRounds bounds the number of (re)transmissions of the codeword before
	// the frame is abandoned. Zero selects 8.
	MaxRounds int
	// Iterations is the BP iteration budget per decode attempt. Zero selects
	// the paper's 40.
	Iterations int
}

func (c Config) withDefaults() Config {
	if c.Modulation == "" {
		c.Modulation = "QAM-16"
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 8
	}
	if c.Iterations == 0 {
		c.Iterations = ldpc.DefaultIterations
	}
	return c
}

// Scheme is an instantiated hybrid-ARQ configuration ready to simulate
// frames.
type Scheme struct {
	cfg  Config
	code *ldpc.Code
	dec  *ldpc.Decoder
	mod  modem.Modulation
}

// New validates the configuration and builds the scheme.
func New(cfg Config) (*Scheme, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxRounds < 1 {
		return nil, fmt.Errorf("harq: MaxRounds must be positive, got %d", cfg.MaxRounds)
	}
	code, err := ldpc.NewWiFiLike(cfg.Rate)
	if err != nil {
		return nil, err
	}
	dec, err := ldpc.NewDecoder(code, cfg.Iterations)
	if err != nil {
		return nil, err
	}
	mod, err := modem.ByName(cfg.Modulation)
	if err != nil {
		return nil, err
	}
	if code.N()%mod.BitsPerSymbol() != 0 {
		return nil, fmt.Errorf("harq: codeword length %d not a multiple of %d bits/symbol",
			code.N(), mod.BitsPerSymbol())
	}
	return &Scheme{cfg: cfg, code: code, dec: dec, mod: mod}, nil
}

// InfoBits returns the number of information bits per frame.
func (s *Scheme) InfoBits() int { return s.code.K() }

// SymbolsPerRound returns the number of channel symbols each (re)transmission
// costs.
func (s *Scheme) SymbolsPerRound() int { return s.code.N() / s.mod.BitsPerSymbol() }

// Label names the scheme in experiment output.
func (s *Scheme) Label() string {
	return fmt.Sprintf("HARQ LDPC %s %s", s.cfg.Rate, s.cfg.Modulation)
}

// FrameResult is the outcome of one hybrid-ARQ frame.
type FrameResult struct {
	// Delivered reports whether the information bits were recovered exactly.
	Delivered bool
	// Rounds is the number of transmissions used.
	Rounds int
	// Symbols is the total number of channel symbols spent.
	Symbols int
}

// RunFrame simulates one frame: random information bits are encoded once and
// transmitted repeatedly through ch (a symbol channel at the SNR under test)
// with per-symbol LLRs accumulated across rounds; after every round the
// accumulated LLRs are decoded. sigma2 is the noise variance the demapper
// assumes, and src supplies the frame's information bits.
func (s *Scheme) RunFrame(ch channel.BlockChannel, sigma2 float64, src *rng.Rand) (*FrameResult, error) {
	if ch == nil || src == nil {
		return nil, fmt.Errorf("harq: nil channel or random source")
	}
	info := make([]byte, s.code.K())
	for i := range info {
		info[i] = byte(src.Intn(2))
	}
	cw, err := s.code.Encode(info)
	if err != nil {
		return nil, err
	}
	syms, err := s.mod.Modulate(cw)
	if err != nil {
		return nil, err
	}

	combined := make([]float64, s.code.N())
	res := &FrameResult{}
	for round := 1; round <= s.cfg.MaxRounds; round++ {
		rx := make([]complex128, len(syms))
		ch.CorruptBlock(rx, syms)
		llr := s.mod.Demodulate(rx, sigma2)
		for i := range combined {
			combined[i] += llr[i]
		}
		res.Rounds = round
		res.Symbols += len(syms)

		out, err := s.dec.Decode(combined)
		if err != nil {
			return nil, err
		}
		if !out.Converged {
			continue
		}
		correct := true
		for i := range info {
			if out.Info[i] != info[i] {
				correct = false
				break
			}
		}
		if correct {
			res.Delivered = true
			return res, nil
		}
	}
	return res, nil
}
