package link

import (
	"bytes"
	"testing"
	"time"

	"spinal/internal/core"
)

// TestReceiverSearchModeRunsEveryAttempt checks that Config.Search is the
// strategy of every decode attempt: a receiver configured for approx runs
// all its attempts under approx (SearchAttempts holds no other mode), and a
// default receiver runs all of them exact.
func TestReceiverSearchModeRunsEveryAttempt(t *testing.T) {
	for _, search := range []core.SearchConfig{{}, {Mode: core.SearchApprox}} {
		a, b, err := NewPipePair(0, 21)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Search: search}
		sender, err := NewSender(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		receiver, err := NewReceiver(b, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		delivered, wg := runReceiver(t, receiver, stop)
		payloads := [][]byte{
			[]byte("first packet under one search mode"),
			[]byte("second packet, same receiver"),
		}
		for i, p := range payloads {
			report, err := sender.Send(uint32(i+1), p)
			if err != nil {
				t.Fatal(err)
			}
			if !report.Acked {
				t.Fatalf("search %v: packet %d not acknowledged", search, i+1)
			}
			select {
			case d := <-delivered:
				if !bytes.Equal(d.Payload, p) {
					t.Fatalf("search %v: delivered wrong payload for packet %d", search, i+1)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("search %v: packet %d never delivered", search, i+1)
			}
		}
		close(stop)
		wg.Wait() // the receive loop has exited, so the stats snapshot is ours
		attempts := receiver.EngineStats().SearchAttempts
		mode := search.Mode.String()
		if len(attempts) != 1 || attempts[mode] == 0 {
			t.Errorf("search %v: SearchAttempts = %v, want only %s attempts", search, attempts, mode)
		}
		receiver.Close()
		a.Close()
	}
}
