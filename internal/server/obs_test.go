package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestObsEndpoint drives an observed request end to end: the response
// carries an obs path and the volume imbalance, /debug/obs/{id} serves
// the full report (classes, matrices, chain summaries), the trace path
// holds the merged compute+collective timeline, and /metrics gains the
// pselinvd_obs_* series.
func TestObsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := &Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 8, NY: 8, Seed: 1}, Procs: 4, Obs: true}
	hr, resp := postJSON(t, ts.URL, req)
	if resp == nil {
		t.Fatalf("status %d", hr.StatusCode)
	}
	if resp.ObsPath == "" {
		t.Fatal("observed request returned no obs path")
	}
	if resp.TracePath == "" {
		t.Fatal("observed request returned no trace path (obs implies trace)")
	}
	if resp.VolImbalance < 1 {
		t.Fatalf("volume imbalance %g, want >= 1 (max/mean)", resp.VolImbalance)
	}

	or, err := http.Get(ts.URL + resp.ObsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer or.Body.Close()
	if or.StatusCode != http.StatusOK {
		t.Fatalf("obs fetch status %d", or.StatusCode)
	}
	var rep struct {
		P       int `json:"p"`
		Classes []struct {
			Class  string  `json:"class"`
			Matrix []int64 `json:"matrix"`
		} `json:"classes"`
		Collectives []struct {
			Class string `json:"class"`
			Kind  string `json:"kind"`
		} `json:"collectives"`
	}
	if err := json.NewDecoder(or.Body).Decode(&rep); err != nil {
		t.Fatalf("obs report is not valid JSON: %v", err)
	}
	if rep.P != 4 {
		t.Fatalf("report P=%d, want 4", rep.P)
	}
	if len(rep.Classes) == 0 || len(rep.Collectives) == 0 {
		t.Fatalf("report missing classes (%d) or collectives (%d)", len(rep.Classes), len(rep.Collectives))
	}
	for _, cr := range rep.Classes {
		if len(cr.Matrix) != rep.P*rep.P {
			t.Fatalf("class %s matrix has %d entries, want %d", cr.Class, len(cr.Matrix), rep.P*rep.P)
		}
	}

	tr, err := http.Get(ts.URL + resp.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	tb, err := io.ReadAll(tr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cat":"collective"`, `"cat":"compute"`, `"role":"root"`} {
		if !strings.Contains(string(tb), want) {
			t.Errorf("merged trace lacks %s", want)
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	mb, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mb)
	for _, want := range []string{
		"pselinvd_obs_runs_total 1",
		`pselinvd_obs_sent_bytes_total{class="Col-Bcast"}`,
		"pselinvd_obs_volume_imbalance ",
		"pselinvd_obs_queue_depth_max ",
		"pselinvd_obs_recv_wait_seconds_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// Unknown id 404s; the index lists the retained report.
	nf, err := http.Get(ts.URL + "/debug/obs/r999999")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown obs report status %d, want 404", nf.StatusCode)
	}
	idx, err := http.Get(ts.URL + "/debug/obs/")
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Body.Close()
	var ids []string
	if err := json.NewDecoder(idx.Body).Decode(&ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != resp.ID {
		t.Fatalf("obs index %v, want [%s]", ids, resp.ID)
	}
}

// TestObsEndpointTopology: an observed request that declares a rank→node
// packing gets the cross-node chain columns in its report — the same ones
// `commvol -obs -cores-per-node` and the TCP workers emit.
func TestObsEndpointTopology(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := &Request{Matrix: MatrixSpec{Kind: "grid2d", NX: 12, NY: 12, Seed: 1}, Procs: 16,
		Scheme: "toposhifted", CoresPerNode: 8, Obs: true}
	hr, resp := postJSON(t, ts.URL, req)
	if resp == nil {
		t.Fatalf("status %d", hr.StatusCode)
	}
	or, err := http.Get(ts.URL + resp.ObsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer or.Body.Close()
	var rep struct {
		CoresPerNode int `json:"cores_per_node"`
		Collectives  []struct {
			Class    string `json:"class"`
			NodesMax int    `json:"nodes_max"`
			CrossMax int    `json:"cross_max"`
			CrossSum int    `json:"cross_sum"`
		} `json:"collectives"`
		TopChains []struct {
			Nodes     int `json:"nodes"`
			CrossHops int `json:"cross_hops"`
		} `json:"top_chains"`
	}
	if err := json.NewDecoder(or.Body).Decode(&rep); err != nil {
		t.Fatalf("obs report is not valid JSON: %v", err)
	}
	if rep.CoresPerNode != 8 {
		t.Fatalf("report cores_per_node = %d, want 8", rep.CoresPerNode)
	}
	// 16 ranks at 8 per node span two nodes, so some collective crosses.
	spread, crossed := 0, 0
	for _, cs := range rep.Collectives {
		spread = max(spread, cs.NodesMax)
		crossed += cs.CrossSum
		if cs.CrossMax > cs.CrossSum {
			t.Fatalf("class %s: cross_max %d > cross_sum %d", cs.Class, cs.CrossMax, cs.CrossSum)
		}
	}
	if spread != 2 || crossed == 0 {
		t.Fatalf("collectives lack the cross-node columns: nodes_max %d, cross_sum %d", spread, crossed)
	}
	if len(rep.TopChains) == 0 || rep.TopChains[0].Nodes == 0 {
		t.Fatalf("top chains lack the nodes column: %+v", rep.TopChains)
	}
}
