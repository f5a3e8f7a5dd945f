package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// surgeryReq is a 2-patch vertical ZZ layout at d=3 on the minimal square
// tiling that hosts it (internal/chaos surgeryTilings).
func surgeryReq(extra map[string]any) map[string]any {
	req := map[string]any{
		"device": map[string]any{"arch": "square", "width": 8, "height": 10},
		"layout": map[string]any{
			"patches": []map[string]any{
				{"name": "a", "distance": 3},
				{"name": "b", "row": 1, "distance": 3},
			},
			"ops": []map[string]any{{"a": 0, "b": 1, "joint": "zz"}},
		},
	}
	for k, v := range extra {
		req[k] = v
	}
	return req
}

func TestSurgeryRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MCWorkers: 1})
	sr := submit(t, ts, "/v1/surgery", surgeryReq(map[string]any{
		"p":   0.004,
		"run": map[string]any{"shots": 256, "max_errors": 10, "seed": 5},
	}))
	rec := waitJob(t, ts, sr.JobID, "done", func(r Record) bool { return r.State == StateDone })

	var res SurgeryResult
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		t.Fatalf("result is not a surgery report: %v", err)
	}
	if len(res.Patches) != 2 {
		t.Fatalf("patches = %d, want 2", len(res.Patches))
	}
	for _, p := range res.Patches {
		if p.CertifiedDistance < 3 {
			t.Fatalf("patch %s certified %d, want >= 3", p.Name, p.CertifiedDistance)
		}
	}
	if res.JointObservables != 1 || res.Observables != 3 {
		t.Fatalf("observables = %d (%d joint), want 3 (1 joint)", res.Observables, res.JointObservables)
	}
	if len(res.Ops) != 1 || res.Ops[0].Joint != "zz" {
		t.Fatalf("ops echo = %+v, want one zz op", res.Ops)
	}
	if res.Point == nil || res.Point.Shots == 0 {
		t.Fatalf("surgery job with p set has no Monte-Carlo point: %+v", res.Point)
	}
	if rec.CacheKey == "" {
		t.Fatal("surgery job has no cache key")
	}

	// An identical resubmission must hit the content-addressed cache.
	again := submit(t, ts, "/v1/surgery", surgeryReq(map[string]any{
		"p":   0.004,
		"run": map[string]any{"shots": 256, "max_errors": 10, "seed": 5},
	}))
	if !again.CacheHit {
		t.Fatalf("identical surgery resubmission missed the cache: %+v", again)
	}
}

func TestSurgeryBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body any
		kind string
	}{
		{"missing layout", map[string]any{
			"device": map[string]any{"arch": "square", "width": 8, "height": 10},
		}, "invalid_config"},
		{"layout plus distance", surgeryReq(map[string]any{"distance": 3}), "invalid_config"},
		{"unknown joint", surgeryReq(map[string]any{"layout": map[string]any{
			"patches": []map[string]any{
				{"name": "a", "distance": 3}, {"name": "b", "row": 1, "distance": 3},
			},
			"ops": []map[string]any{{"a": 0, "b": 1, "joint": "xy"}},
		}}), "bad_layout"},
		{"non-adjacent op", surgeryReq(map[string]any{"layout": map[string]any{
			"patches": []map[string]any{
				{"name": "a", "distance": 3}, {"name": "b", "row": 2, "distance": 3},
			},
			"ops": []map[string]any{{"a": 0, "b": 1, "joint": "zz"}},
		}}), "bad_layout"},
		// The spec's phase lengths and the ops fix a layout's rounds and
		// bases; memory-only run fields must not be silently dropped.
		{"run rounds", surgeryReq(map[string]any{"p": 0.004, "run": map[string]any{"rounds": 5}}), "invalid_config"},
		{"run basis", surgeryReq(map[string]any{"p": 0.004, "run": map[string]any{"basis": "X"}}), "invalid_config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, blob := postJSON(t, ts, "/v1/surgery", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, blob)
			}
			var er errorResponse
			if err := json.Unmarshal(blob, &er); err != nil || er.Kind != tc.kind {
				t.Fatalf("error kind %q, want %q (body %s, err %v)", er.Kind, tc.kind, blob, err)
			}
		})
	}

	t.Run("layout on synthesize kind", func(t *testing.T) {
		resp, blob := postJSON(t, ts, "/v1/synthesize", surgeryReq(nil))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400; body %s", resp.StatusCode, blob)
		}
	})
}
