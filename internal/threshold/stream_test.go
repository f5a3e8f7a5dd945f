package threshold

import (
	"strings"
	"testing"

	"surfstitch/internal/decoder"
	"surfstitch/internal/device"
	"surfstitch/internal/obs"
	"surfstitch/internal/stats"
	"surfstitch/internal/synth"
)

// streamProvider builds the memory itself as the provider: it carries the
// detector→round map the streaming ablation needs.
func streamProvider(t *testing.T, rounds int) CircuitProvider {
	t.Helper()
	_, mem := memoryProvider(t, device.Square(6, 6), 3, synth.ModeFour, rounds)
	return mem
}

func TestStreamingPointMatchesWholeShotWithinWilson(t *testing.T) {
	// The streaming ablation at a full-cover window must agree exactly
	// with whole-shot union-find decoding isn't guaranteed through the
	// threshold API (whole-shot mode uses the k<=2 closed forms); what is
	// guaranteed — and asserted — is statistical agreement within Wilson
	// intervals at matched seeds, plus deterministic streaming counters.
	prov := streamProvider(t, 3)
	base := Config{Shots: 2560, Seed: 7, ChunkShots: 256, NoIdle: true}

	whole, err := EstimatePoint(prov, 0.02, base)
	if err != nil {
		t.Fatal(err)
	}
	// Window 3 of the memory's 4 detector rounds: enough context that the
	// sliding window's extra artifacts stay inside statistical noise (a
	// window of 2 measurably degrades the rate at this p — that loss is
	// physical, not a bug, and the decoder-level tests pin it too).
	scfg := base
	scfg.Decoder = decoder.Options{UnionFind: true}
	scfg.Stream = &decoder.StreamConfig{Window: 3, Commit: 1}
	streamed, err := EstimatePoint(prov, 0.02, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Shots != whole.Shots {
		t.Fatalf("streamed %d shots, whole-shot %d", streamed.Shots, whole.Shots)
	}
	sLo, sHi := stats.WilsonInterval(streamed.Errors, streamed.Shots, 3)
	wLo, wHi := stats.WilsonInterval(whole.Errors, whole.Shots, 3)
	if sLo > wHi || wLo > sHi {
		t.Fatalf("streamed LER %d/%d [%f,%f] vs whole-shot %d/%d [%f,%f]: intervals disjoint",
			streamed.Errors, streamed.Shots, sLo, sHi, whole.Errors, whole.Shots, wLo, wHi)
	}
}

func TestStreamingDeterministicAcrossWorkers(t *testing.T) {
	prov := streamProvider(t, 3)
	var want Point
	for i, workers := range []int{1, 4} {
		cfg := Config{
			Shots: 1280, Seed: 13, Workers: workers, ChunkShots: 256, NoIdle: true,
			Decoder: decoder.Options{UnionFind: true},
			Stream:  &decoder.StreamConfig{Window: 2, Commit: 1},
		}
		got, err := EstimatePoint(prov, 0.015, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: %+v != workers=1 %+v", workers, got, want)
		}
	}
}

func TestStreamingRequiresRoundProvider(t *testing.T) {
	prov, _ := memoryProvider(t, device.Square(6, 6), 3, synth.ModeFour, 2)
	cfg := Config{
		Shots: 256, NoIdle: true,
		Stream: &decoder.StreamConfig{Window: 2, Commit: 1},
	}
	if _, err := EstimatePoint(prov, 0.01, cfg); err == nil || !strings.Contains(err.Error(), "RoundProvider") {
		t.Fatalf("plain provider accepted for streaming decode (err=%v)", err)
	}
}

func TestUFAndStreamCountersReachRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	prov := streamProvider(t, 3)
	cfg := Config{
		Shots: 1280, Seed: 3, ChunkShots: 256, NoIdle: true, Registry: reg,
		Decoder: decoder.Options{UnionFind: true},
		Stream:  &decoder.StreamConfig{Window: 2, Commit: 1},
	}
	// p=0.03 guarantees multi-defect windows, so the union-find counter
	// must move; every shot commits at least one window either way.
	pt, err := EstimatePoint(prov, 0.03, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, series := range []string{
		"decoder_uf_total", "decoder_uf_fallback_total", "decoder_window_commits_total",
	} {
		if _, ok := snap[series]; !ok {
			t.Errorf("registry snapshot missing %s", series)
		}
	}
	if v := reg.Counter("decoder_uf_total").Value(); v == 0 {
		t.Error("decoder_uf_total stayed zero at p=0.03")
	}
	commits := reg.Counter("decoder_window_commits_total").Value()
	if commits < int64(pt.Shots) {
		t.Errorf("window commits %d < shots %d: every shot commits at least once", commits, pt.Shots)
	}
	if reg.Counter("decoder_uf_fallback_total").Value() != 0 {
		t.Error("uf fallbacks nonzero on a boundary-connected memory graph")
	}

	// Whole-shot union-find mode promotes the same counters.
	reg2 := obs.NewRegistry()
	cfg2 := Config{
		Shots: 1280, Seed: 3, ChunkShots: 256, NoIdle: true, Registry: reg2,
		Decoder: decoder.Options{UnionFind: true},
	}
	if _, err := EstimatePoint(prov, 0.03, cfg2); err != nil {
		t.Fatal(err)
	}
	if v := reg2.Counter("decoder_uf_total").Value(); v == 0 {
		t.Error("whole-shot uf mode: decoder_uf_total stayed zero at p=0.03")
	}
	if v := reg2.Counter("decoder_window_commits_total").Value(); v != 0 {
		t.Errorf("whole-shot mode counted %d window commits", v)
	}
}
