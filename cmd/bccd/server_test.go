package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bcclique/internal/engine"
	"bcclique/internal/harness"
	"bcclique/internal/results"
)

// testServer builds a server over a store in a temp dir. Fast tests use
// the cheap experiments (E13) so the suite stays quick.
func testServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := harness.NewEngine(engine.WithStore(store))
	srv := newServer(eng, defaultServerConfig())
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() { stopServer(srv, ts) })
	return ts, eng
}

// stopServer cancels the server's background jobs, waits for them to
// unwind — a job may still be writing its result to the store's temp
// dir, which the test's cleanup removes next — and closes the listener.
func stopServer(srv *server, ts *httptest.Server) {
	srv.cancelJobs()
	srv.eng.WaitJobs(context.Background())
	ts.Close()
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestReportServedFromCache is the serving acceptance test: a repeated
// GET /v1/report is served hot from the cache with zero re-executed
// experiments, byte-identical to the first response.
func TestReportServedFromCache(t *testing.T) {
	ts, eng := testServer(t)
	url := ts.URL + "/v1/report?only=E13&quick=1&seed=1&format=md"

	fetch := func() string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/markdown") {
			t.Errorf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	first := fetch()
	if !strings.Contains(first, "## E13") || !strings.Contains(first, "1 experiments completed.") {
		t.Fatalf("report malformed:\n%s", first)
	}
	execsAfterFirst := eng.Executions()
	if execsAfterFirst != 1 {
		t.Fatalf("first request executed %d experiments, want 1", execsAfterFirst)
	}

	second := fetch()
	if got := eng.Executions(); got != execsAfterFirst {
		t.Errorf("repeated request re-executed experiments: %d -> %d", execsAfterFirst, got)
	}
	if first != second {
		t.Error("cached report is not byte-identical to the first response")
	}

	// JSON format is served from the same cache entries.
	var doc struct {
		Results []struct {
			ID string `json:"id"`
		} `json:"results"`
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/report?only=E13&quick=1&seed=1&format=json", &doc); code != http.StatusOK {
		t.Fatalf("json status %d", code)
	}
	if doc.Count != 1 || len(doc.Results) != 1 || doc.Results[0].ID != "E13" {
		t.Errorf("json doc = %+v", doc)
	}
	if got := eng.Executions(); got != execsAfterFirst {
		t.Errorf("json request re-executed experiments: %d -> %d", execsAfterFirst, got)
	}
}

func TestReportValidation(t *testing.T) {
	ts, _ := testServer(t)
	for query, wantCode := range map[string]int{
		"only=E99":            http.StatusBadRequest,
		"format=yaml":         http.StatusBadRequest,
		"seed=abc":            http.StatusBadRequest,
		"quick=maybe":         http.StatusBadRequest,
		"only=E13&quick=true": http.StatusOK,
	} {
		var out map[string]interface{}
		code := getJSON(t, ts.URL+"/v1/report?"+query, nil)
		if code != wantCode {
			t.Errorf("GET /v1/report?%s = %d, want %d (%v)", query, code, wantCode, out)
		}
	}
}

func TestJobEndpoints(t *testing.T) {
	ts, _ := testServer(t)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"only":["E13"],"quick":true,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var job engine.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: status %d job %+v", resp.StatusCode, job)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if job.Status == engine.JobDone || job.Status == engine.JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.Status != engine.JobDone || len(job.Results) != 1 || job.Results[0].ID != "E13" {
		t.Fatalf("job = %+v", job)
	}

	var jobs []engine.Job
	if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Errorf("list: %d jobs, code %d", len(jobs), code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job code %d", code)
	}

	// Unknown IDs and bad bodies are rejected up front.
	for _, body := range []string{`{"only":["E99"]}`, `{"bogus":1}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSweepsEndpoint covers GET /v1/sweeps: grid listing, the four
// render formats, per-cell cache hits on repeat requests, and
// validation.
func TestSweepsEndpoint(t *testing.T) {
	ts, eng := testServer(t)

	// Listing without ?grid=.
	var grids []struct {
		ID        string   `json:"id"`
		Protocols []string `json:"protocols"`
		Families  []string `json:"families"`
	}
	if code := getJSON(t, ts.URL+"/v1/sweeps", &grids); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(grids) != 2 || grids[0].ID != "E17" || grids[1].ID != "E18" {
		t.Fatalf("grids = %+v", grids)
	}
	if len(grids[0].Protocols) < 3 || len(grids[0].Families) < 4 {
		t.Errorf("E17 axes too small: %+v", grids[0])
	}

	fetch := func(query string) (int, string) {
		resp, err := http.Get(ts.URL + "/v1/sweeps?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// CSV: header + one line per cell, streamed in cell order.
	code, csvBody := fetch("grid=E18&quick=1&format=csv")
	if code != http.StatusOK {
		t.Fatalf("csv status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(csvBody), "\n")
	wantCells := 3 * 4 * 1 // families × protocols × quick sizes
	if len(lines) != wantCells+1 {
		t.Fatalf("csv has %d lines, want %d:\n%s", len(lines), wantCells+1, csvBody)
	}
	if !strings.HasPrefix(lines[0], "family,protocol,n") {
		t.Errorf("csv header = %q", lines[0])
	}
	cellsAfterFirst := eng.CellExecutions()
	if cellsAfterFirst != int64(wantCells) {
		t.Errorf("first sweep executed %d cells, want %d", cellsAfterFirst, wantCells)
	}

	// Repeat in another format: served from the per-cell cache.
	code, mdBody := fetch("grid=E18&quick=1&format=md")
	if code != http.StatusOK || !strings.Contains(mdBody, "## E18") {
		t.Fatalf("md status %d body:\n%s", code, mdBody)
	}
	if got := eng.CellExecutions(); got != cellsAfterFirst {
		t.Errorf("repeat sweep re-executed cells: %d -> %d", cellsAfterFirst, got)
	}

	// JSONL: one object per cell.
	code, jsonlBody := fetch("grid=E18&quick=1&format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("jsonl status %d", code)
	}
	jl := strings.Split(strings.TrimSpace(jsonlBody), "\n")
	if len(jl) != wantCells {
		t.Fatalf("jsonl has %d lines, want %d", len(jl), wantCells)
	}
	var rowObj struct {
		Grid  string            `json:"grid"`
		Cells map[string]string `json:"cells"`
	}
	if err := json.Unmarshal([]byte(jl[0]), &rowObj); err != nil {
		t.Fatalf("jsonl line: %v", err)
	}
	if rowObj.Grid != "E18" || rowObj.Cells["silent wrong"] != "0" {
		t.Errorf("jsonl row = %+v", rowObj)
	}

	// Axis restriction: a targeted slice, CLI-flag semantics. The
	// narrowed run shares the per-cell cache with the full quick run
	// above, so the cells it covers serve without recomputation.
	cellsBefore := eng.CellExecutions()
	code, slice := fetch("grid=E18&quick=1&format=csv&protocols=boruvka&families=planted-2")
	if code != http.StatusOK {
		t.Fatalf("restricted csv status %d", code)
	}
	sliceLines := strings.Split(strings.TrimSpace(slice), "\n")
	if len(sliceLines) != 2 || !strings.Contains(sliceLines[1], "planted-2,boruvka") {
		t.Errorf("restricted slice = %q", slice)
	}
	if got := eng.CellExecutions(); got != cellsBefore {
		t.Errorf("restricted slice re-executed cells: %d -> %d", cellsBefore, got)
	}
	// A restricted size ladder runs only its own cells.
	code, slice = fetch("grid=E18&format=csv&protocols=boruvka&families=planted-2&sizes=16")
	if code != http.StatusOK || len(strings.Split(strings.TrimSpace(slice), "\n")) != 2 {
		t.Errorf("size-restricted slice: status %d body %q", code, slice)
	}

	// Validation.
	if code, _ := fetch("grid=E99"); code != http.StatusNotFound {
		t.Errorf("unknown grid status %d", code)
	}
	if code, _ := fetch("grid=E18&format=yaml"); code != http.StatusBadRequest {
		t.Errorf("unknown format status %d", code)
	}
	if code, _ := fetch("grid=E18&seed=abc"); code != http.StatusBadRequest {
		t.Errorf("bad seed status %d", code)
	}
	if code, _ := fetch("grid=E18&protocols=nope"); code != http.StatusBadRequest {
		t.Errorf("unknown restricted protocol status %d", code)
	}
	if code, _ := fetch("grid=E18&sizes=abc"); code != http.StatusBadRequest {
		t.Errorf("bad sizes status %d", code)
	}
	if code, _ := fetch("grid=E18&sizes=-1"); code != http.StatusBadRequest {
		t.Errorf("non-positive sizes status %d", code)
	}
}

func TestSpecsAndHealth(t *testing.T) {
	ts, _ := testServer(t)
	var specs []struct {
		ID  string `json:"id"`
		Key string `json:"key"`
	}
	if code := getJSON(t, ts.URL+"/v1/specs", &specs); code != http.StatusOK {
		t.Fatalf("specs status %d", code)
	}
	if len(specs) != 18 || specs[0].ID != "E01" || specs[16].ID != "E17" || specs[17].ID != "E18" {
		t.Errorf("specs = %d entries", len(specs))
	}
	for _, s := range specs {
		if s.Key == "" {
			t.Errorf("spec %s missing canonical key", s.ID)
		}
	}
	var health struct {
		Status   string `json:"status"`
		CacheDir string `json:"cache_dir"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Errorf("health = %+v, code %d", health, code)
	}
	if health.CacheDir == "" {
		t.Error("health should report the cache dir")
	}
}
