package spinal

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"spinal/internal/core"
)

// These tests cover the decoder pool behind the Transmit entry points: a
// pooled transmission must match a fresh-decoder session exactly, one Code
// must serve concurrent callers, and the pool must not accumulate worker
// goroutines.

type transmitCase struct {
	bits int
	snr  float64
	seed uint64
}

func transmitCases() []transmitCase {
	var cs []transmitCase
	for seed := uint64(1); seed <= 4; seed++ {
		for _, snr := range []float64{5, 15, 25} {
			cs = append(cs, transmitCase{bits: 24, snr: snr, seed: seed})
		}
		cs = append(cs, transmitCase{bits: 64, snr: 15, seed: seed})
	}
	return cs
}

func codesFor(t *testing.T, cfg Config) map[int]*Code {
	t.Helper()
	codes := map[int]*Code{}
	for _, bits := range []int{24, 64} {
		cfg.MessageBits = bits
		c, err := NewCode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		codes[bits] = c
	}
	return codes
}

func transmitOnce(t *testing.T, c *Code, tc transmitCase) *TransmitResult {
	t.Helper()
	ch, err := NewAWGN(tc.snr, tc.seed)
	if err != nil {
		t.Error(err)
		return nil
	}
	res, err := c.TransmitOver(RandomMessage(tc.bits, tc.seed), ch, nil, 0)
	if err != nil {
		t.Error(err)
		return nil
	}
	return res
}

func sameTransmit(a, b *TransmitResult) bool {
	return bytes.Equal(a.Decoded, b.Decoded) && a.Symbols == b.Symbols && a.Delivered == b.Delivered
}

// TestTransmitOverMatchesFreshDecoderSession: over a seed set, the pooled
// TransmitOver reports exactly what core.RunChannelSession reports with a
// freshly built decoder.
func TestTransmitOverMatchesFreshDecoderSession(t *testing.T) {
	codes := codesFor(t, Config{})
	for _, tc := range transmitCases() {
		c := codes[tc.bits]
		got := transmitOnce(t, c, tc)

		msg := RandomMessage(tc.bits, tc.seed)
		cfg, verify, err := c.sessionConfig(msg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Pool = nil
		ch, err := NewAWGN(tc.snr, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.RunChannelSession(cfg, msg, ch, verify)
		if err != nil {
			t.Fatal(err)
		}
		want := c.transmitResult(ref)
		if !sameTransmit(got, want) {
			t.Errorf("%+v: pooled TransmitOver (%x, %d symbols, delivered %v), fresh session (%x, %d, %v)",
				tc, got.Decoded, got.Symbols, got.Delivered, want.Decoded, want.Symbols, want.Delivered)
		}
	}
	for bits, c := range codes {
		if s := c.pool.Stats(); s.Hits == 0 || s.Outstanding != 0 {
			t.Errorf("%d-bit code: pool stats %+v, want hits and no outstanding leases", bits, s)
		}
	}
}

// TestTransmitOverConcurrentCallers runs several goroutines through one Code
// at once (run it under -race) and checks every result against a sequential
// reference.
func TestTransmitOverConcurrentCallers(t *testing.T) {
	cases := transmitCases()
	if testing.Short() {
		cases = cases[:8]
	}
	ref := codesFor(t, Config{Workers: 2})
	want := make([]*TransmitResult, len(cases))
	for i, tc := range cases {
		want[i] = transmitOnce(t, ref[tc.bits], tc)
	}

	codes := codesFor(t, Config{Workers: 2})
	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				i := (i + g) % len(cases) // stagger, so callers overlap on different messages
				got := transmitOnce(t, codes[cases[i].bits], cases[i])
				if got != nil && want[i] != nil && !sameTransmit(got, want[i]) {
					t.Errorf("caller %d, %+v: concurrent result differs from sequential", g, cases[i])
				}
			}
		}(g)
	}
	wg.Wait()
	for bits, c := range codes {
		if s := c.pool.Stats(); s.Outstanding != 0 || s.Idle > c.pool.Capacity() {
			t.Errorf("%d-bit code: pool stats %+v after concurrent callers", bits, s)
		}
	}
}

// TestTransmitOverKeepsGoroutinesBounded: 200 sequential transmissions leave
// at most one pool's worth of idle decoders, each holding Workers-1 helper
// goroutines — not one set per message.
func TestTransmitOverKeepsGoroutinesBounded(t *testing.T) {
	const workers = 3
	c, err := NewCode(Config{MessageBits: 24, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		if res := transmitOnce(t, c, transmitCase{bits: 24, snr: 25, seed: uint64(i + 1)}); res == nil || !res.Delivered {
			t.Fatalf("transmission %d failed", i)
		}
	}
	limit := c.pool.Capacity() * (workers - 1)
	if grown := runtime.NumGoroutine() - start; grown > limit {
		t.Fatalf("goroutines grew by %d over 200 transmissions, want at most %d", grown, limit)
	}
}
