package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"visasim/internal/cluster"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/server"
)

// newControlPlane boots a dynamic, admission-gated coordinator and its
// control HTTP surface.
func newControlPlane(t *testing.T) (*Coordinator, *httptest.Server) {
	t.Helper()
	reg, err := cluster.NewRegistry([]cluster.Tenant{
		{ID: "papers", Key: "pk", Class: "interactive", RatePerSec: 10000, MaxQueued: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, Options{Dynamic: true, Admission: cluster.NewAdmission(reg), Workers: 4})
	ctl := httptest.NewServer(c.Control())
	t.Cleanup(ctl.Close)
	return c, ctl
}

func postJSON(t *testing.T, url string, body any, headers map[string]string) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestControlPlaneLifecycle drives the whole control surface end to end:
// register two daemons over HTTP, dispatch a mixed sweep with tenant and
// priority headers, verify byte parity with a local run, exercise 401/429
// admission answers, then drain a backend out.
func TestControlPlaneLifecycle(t *testing.T) {
	_, ctl := newControlPlane(t)
	b1, b2 := newBackend(t), newBackend(t)

	// Registration handshakes and reports membership.
	for i, b := range []string{b1.URL, b2.URL} {
		resp := postJSON(t, ctl.URL+"/v1/backends/register", registerRequest{URL: b}, nil)
		var members []BackendStatus
		decodeInto(t, resp, &members)
		if resp.StatusCode != http.StatusOK || len(members) != i+1 {
			t.Fatalf("register %s: HTTP %d, %d members", b, resp.StatusCode, len(members))
		}
	}
	// A dead URL is refused at the handshake.
	if resp := postJSON(t, ctl.URL+"/v1/backends/register",
		registerRequest{URL: "http://127.0.0.1:1"}, nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("registering a dead backend: HTTP %d, want 502", resp.StatusCode)
	}

	// Dispatch through the scheduler with tenant + priority headers.
	sub := server.SubmitRequest{Cells: []server.SubmitCell{
		{Key: "gcc", Config: testCfg("gcc", core.SchemeBase)},
		{Key: "mcf", Config: testCfg("mcf", core.SchemeVISA)},
	}}
	hdrs := map[string]string{
		cluster.KeyHeader:   "pk",
		cluster.ClassHeader: "interactive",
	}
	resp := postJSON(t, ctl.URL+"/v1/dispatch", sub, hdrs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dispatch: HTTP %d", resp.StatusCode)
	}
	var dr DispatchResponse
	decodeInto(t, resp, &dr)
	if dr.Sweep == "" || len(dr.Cells) != 2 {
		t.Fatalf("dispatch response = %+v", dr)
	}
	local, err := harness.Run([]harness.Cell{
		{Key: "gcc", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "mcf", Cfg: testCfg("mcf", core.SchemeVISA)},
	}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range dr.Cells {
		lj, err := json.Marshal(local[cell.Key])
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer // the indenting encoder reformatted the raw result
		if err := json.Compact(&compact, cell.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), lj) {
			t.Fatalf("cell %s: dispatched result differs from local run", cell.Key)
		}
	}

	// Unknown key → 401; over-quota → 429 with both retry hints.
	if resp := postJSON(t, ctl.URL+"/v1/dispatch", sub,
		map[string]string{cluster.KeyHeader: "wrong"}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad-key dispatch: HTTP %d, want 401", resp.StatusCode)
	}
	big := server.SubmitRequest{}
	for i := 0; i < 5; i++ {
		cfg := testCfg("gcc", core.SchemeBase)
		cfg.MaxInstructions = testBudget + uint64(i)
		big.Cells = append(big.Cells, server.SubmitCell{Key: fmt.Sprintf("big-%d", i), Config: cfg})
	}
	resp = postJSON(t, ctl.URL+"/v1/dispatch", big, hdrs)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota dispatch: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer second count", ra)
	}
	if ms := resp.Header.Get(cluster.RetryAfterMsHeader); ms == "" {
		t.Errorf("429 without %s", cluster.RetryAfterMsHeader)
	}

	// Tenant usage shows up without leaking keys.
	var tenants []cluster.TenantStatus
	tresp, err := http.Get(ctl.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	decodeInto(t, tresp, &tenants)
	if len(tenants) != 1 || tenants[0].ID != "papers" || tenants[0].Admitted != 2 || tenants[0].Rejected != 5 {
		t.Fatalf("tenants = %+v, want papers with 2 admitted, 5 rejected", tenants)
	}

	// Drain removes a backend gracefully.
	if resp := postJSON(t, ctl.URL+"/v1/backends/drain",
		registerRequest{URL: b1.URL}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: HTTP %d", resp.StatusCode)
	}
	bresp, err := http.Get(ctl.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var members []BackendStatus
	decodeInto(t, bresp, &members)
	if len(members) != 1 || members[0].URL != b2.URL {
		t.Fatalf("members after drain = %+v", members)
	}
}

// TestControlPlaneBodyCap checks that the coordinator decodes request
// bodies under the daemon's cap: a sweep padded past server.MaxRequestBytes
// is refused with 400 while the same sweep unpadded runs, and a padded
// membership POST is refused too. The padding is leading whitespace, valid
// JSON, so only the cap can reject it.
func TestControlPlaneBodyCap(t *testing.T) {
	_, ctl := newControlPlane(t)
	b := newBackend(t)
	pad := bytes.Repeat([]byte(" "), server.MaxRequestBytes)
	post := func(path string, body any, padded bool) int {
		t.Helper()
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if padded {
			blob = append(pad, blob...)
		}
		req, err := http.NewRequest(http.MethodPost, ctl.URL+path, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.KeyHeader, "pk")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	reg := registerRequest{URL: b.URL}
	if code := post("/v1/backends/register", reg, true); code != http.StatusBadRequest {
		t.Fatalf("over-cap register: HTTP %d, want 400", code)
	}
	if code := post("/v1/backends/register", reg, false); code != http.StatusOK {
		t.Fatalf("register: HTTP %d, want 200", code)
	}
	sub := server.SubmitRequest{Cells: []server.SubmitCell{
		{Key: "gcc", Config: testCfg("gcc", core.SchemeBase)},
	}}
	if code := post("/v1/dispatch", sub, true); code != http.StatusBadRequest {
		t.Fatalf("over-cap dispatch: HTTP %d, want 400", code)
	}
	if code := post("/v1/dispatch", sub, false); code != http.StatusOK {
		t.Fatalf("dispatch: HTTP %d, want 200", code)
	}
}

// TestDispatchSharesSubmitDecoder checks that POST /v1/dispatch decodes
// with the daemon's own rules (server.DecodeSubmit): a misspelled field
// and an unknown benchmark both answer 400 before anything reaches a
// backend, and an accepted cell comes back with its content address.
func TestDispatchSharesSubmitDecoder(t *testing.T) {
	ts, rb := newRecordingBackend(t)
	c := newCoordinator(t, Options{Backends: []string{ts.URL}})
	ctl := httptest.NewServer(c.Control())
	t.Cleanup(ctl.Close)
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ctl.URL+"/v1/dispatch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	cfg := testCfg("gcc", core.SchemeBase)
	body := func(cfg core.Config, extra string) string {
		t.Helper()
		blob, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"cells":[{"key":"a","config":%s}]%s}`, blob, extra)
	}

	for name, body := range map[string]string{
		"misspelled field":  body(cfg, `,"trace_levl":1`),
		"unknown benchmark": body(testCfg("nonesuch", core.SchemeBase), ""),
	} {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	if seen := rb.seen(); len(seen) != 0 {
		t.Fatalf("rejected bodies reached the backend: %v", seen)
	}
	if n := c.Members()[0].Dispatched; n != 0 {
		t.Fatalf("backend saw %d dispatches, want 0", n)
	}

	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	resp := post(body(cfg, ""))
	var dr DispatchResponse
	decodeInto(t, resp, &dr)
	if resp.StatusCode != http.StatusOK || len(dr.Cells) != 1 || dr.Cells[0].Hash != hash {
		t.Fatalf("dispatch: HTTP %d, cells %+v, want one cell with hash %s", resp.StatusCode, dr.Cells, hash)
	}
}
