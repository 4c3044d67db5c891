package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/train"
)

// TestHashRingPermutationInvariant is the assignment property test: the
// vertex→group mapping is a function of the group KEYS only, so permuting
// the group list must not move a single vertex.
func TestHashRingPermutationInvariant(t *testing.T) {
	keys := []string{"group-0", "group-1", "group-2", "group-3"}
	ref := newHashRing(keys, 64)
	const vertices = 20000
	want := make([]string, vertices)
	for v := 0; v < vertices; v++ {
		want[v] = keys[ref.lookup(int32(v))]
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		shuffled := append([]string(nil), keys...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r := newHashRing(shuffled, 64)
		for v := 0; v < vertices; v++ {
			if got := shuffled[r.lookup(int32(v))]; got != want[v] {
				t.Fatalf("trial %d (%v): vertex %d moved %s -> %s", trial, shuffled, v, want[v], got)
			}
		}
	}
}

// TestHashRingMinimalMovementOnRemoval pins consistent hashing's point:
// removing one of N nodes moves EXACTLY the vertices that node owned (no
// collateral reshuffling), and that set is ~1/N of the space.
func TestHashRingMinimalMovementOnRemoval(t *testing.T) {
	keys := []string{"group-0", "group-1", "group-2", "group-3"}
	const vertices = 20000
	before := newHashRing(keys, 128)
	for drop := range keys {
		var kept []string
		for i, k := range keys {
			if i != drop {
				kept = append(kept, k)
			}
		}
		after := newHashRing(kept, 128)
		moved := 0
		for v := 0; v < vertices; v++ {
			was := keys[before.lookup(int32(v))]
			now := kept[after.lookup(int32(v))]
			if was == keys[drop] {
				moved++
				continue // had to move: its owner is gone
			}
			if was != now {
				t.Fatalf("vertex %d moved %s -> %s though %s was not removed",
					v, was, now, was)
			}
		}
		// The moved set is the removed node's share: ~1/N, well under the
		// 1/R worst-case budget with a little vnode-imbalance slack.
		if frac := float64(moved) / vertices; frac > 1.5/float64(len(keys)) {
			t.Fatalf("removing %s moved %.1f%% of vertices (budget %.1f%%)",
				keys[drop], 100*frac, 150.0/float64(len(keys)))
		}
	}
}

// TestFrontendPickOrderHealthFirst pins the picker invariants: an unhealthy
// replica is never attempted before every healthy one; power-of-two-choices
// prefers the less-loaded of its two candidates; and with nothing healthy,
// every replica is still a candidate.
func TestFrontendPickOrderHealthFirst(t *testing.T) {
	f, err := NewFrontend(FrontendConfig{Groups: []GroupSpec{
		{Key: "g0", Replicas: []string{"a:1", "b:2", "c:3", "d:4"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g := f.groups[0]

	g.replicas[1].healthy.Store(false)
	g.replicas[3].healthy.Store(false)
	for trial := 0; trial < 200; trial++ {
		order := f.pickOrder(g)
		if len(order) != len(g.replicas) {
			t.Fatalf("order %v dropped replicas", order)
		}
		seenUnhealthy := false
		for _, i := range order {
			if !g.replicas[i].healthy.Load() {
				seenUnhealthy = true
			} else if seenUnhealthy {
				t.Fatalf("order %v places healthy replica %d after an unhealthy one", order, i)
			}
		}
	}

	// P2C by depth: with replica 0 heavily loaded, replica 2 (the only
	// other healthy one) must win every two-candidate comparison.
	g.replicas[0].inflight.Store(100)
	wins := 0
	for trial := 0; trial < 200; trial++ {
		if f.pickOrder(g)[0] == 2 {
			wins++
		}
	}
	if wins != 200 {
		t.Fatalf("idle healthy replica won %d/200 picks against a loaded one", wins)
	}

	// All unhealthy: requests still go somewhere (live probes beat errors).
	for _, r := range g.replicas {
		r.healthy.Store(false)
	}
	if order := f.pickOrder(g); len(order) != len(g.replicas) {
		t.Fatalf("all-unhealthy order %v must still cover every replica", order)
	}
}

// TestFrontendRejectsMisconfiguration pins the fail-fast contract.
func TestFrontendRejectsMisconfiguration(t *testing.T) {
	cases := []FrontendConfig{
		{},
		{Groups: []GroupSpec{{Key: "", Replicas: []string{"a:1"}}}},
		{Groups: []GroupSpec{{Key: "g", Replicas: nil}}},
		{Groups: []GroupSpec{{Key: "g", Replicas: []string{"a:1"}}, {Key: "g", Replicas: []string{"b:2"}}}},
	}
	for i, cfg := range cases {
		if _, err := NewFrontend(cfg); err == nil {
			t.Fatalf("case %d: misconfiguration accepted", i)
		}
	}
}

// stubBackend is a scriptable replica for frontend unit tests.
type stubBackend struct {
	ts      *httptest.Server
	name    string
	hits    atomic.Int64
	reloads atomic.Int64
	mode    atomic.Int32 // 0 ok, 1 shed(429), 2 fail(500), 3 healthzDown, 4 oversized 200 replies
}

func newStubBackend(name string) *stubBackend {
	b := &stubBackend{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if b.mode.Load() == 3 {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if b.mode.Load() == 4 {
			w.Write(bytes.Repeat([]byte("x"), maxReloadReply+1))
			return
		}
		if b.mode.Load() != 0 {
			http.Error(w, "reload refused", http.StatusUnprocessableEntity)
			return
		}
		b.reloads.Add(1)
		fmt.Fprintf(w, `{"reloaded":true,"body_bytes":%d}`, len(body))
	})
	handle := func(w http.ResponseWriter, r *http.Request) {
		b.hits.Add(1)
		switch b.mode.Load() {
		case 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
		case 2, 3:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case 4:
			w.Write(bytes.Repeat([]byte(" "), maxBackendBody+1))
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"served_by":%q,"vertex":%s}`, b.name, r.URL.Query().Get("vertex"))
		}
	}
	mux.HandleFunc("/predict", handle)
	mux.HandleFunc("/embed", handle)
	b.ts = httptest.NewServer(mux)
	return b
}

func stubFrontend(t *testing.T, probe time.Duration, backends ...*stubBackend) *Frontend {
	t.Helper()
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.ts.URL
	}
	f, err := NewFrontend(FrontendConfig{
		Groups:        []GroupSpec{{Key: "group-0", Replicas: addrs}},
		MaxFails:      2,
		ProbeInterval: probe,
		ProxyTimeout:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func frontendGet(t *testing.T, f *Frontend, path string) (int, []byte) {
	t.Helper()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestFrontendFailoverKilledReplica is the failover pin: with one of two
// replicas hard-killed, every request still succeeds via the survivor, the
// dead replica is marked unhealthy after MaxFails consecutive errors, and
// once unhealthy it stops being attempted at all.
func TestFrontendFailoverKilledReplica(t *testing.T) {
	alive, dead := newStubBackend("alive"), newStubBackend("dead")
	defer alive.ts.Close()
	f := stubFrontend(t, time.Hour, alive, dead) // prober effectively off
	defer f.Close()
	dead.ts.Close() // SIGKILL stand-in: connections refused from now on

	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	for i := 0; i < 40; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/predict?vertex=%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s (killed replica must not surface errors)",
				i, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"served_by":"alive"`) {
			t.Fatalf("request %d: unexpected responder: %s", i, body)
		}
	}
	st := f.StatsSnapshot()
	if st.Errors != 0 {
		t.Fatalf("frontend surfaced %d errors with a live replica available", st.Errors)
	}
	if st.Retries == 0 {
		t.Fatal("no retries recorded — the dead replica was never even tried?")
	}
	var deadStats *ReplicaStats
	for i := range st.Groups[0].Replicas {
		if st.Groups[0].Replicas[i].Addr == dead.ts.URL {
			deadStats = &st.Groups[0].Replicas[i]
		}
	}
	if deadStats == nil || deadStats.Healthy {
		t.Fatalf("killed replica still marked healthy: %+v", st.Groups[0])
	}
	// Unhealthy replicas get no traffic while a healthy sibling exists:
	// attempts stop growing once marked (MaxFails=2, so ≤ a handful).
	if deadStats.Requests > 10 {
		t.Fatalf("unhealthy replica kept receiving traffic: %d attempts", deadStats.Requests)
	}
}

// TestFrontendShedPropagation pins the saturation contract: a shedding
// replica is retried on a sibling (429 is backpressure, not sickness — it
// must not trip the health breaker), and only when EVERY replica sheds does
// the client see 429 + Retry-After.
func TestFrontendShedPropagation(t *testing.T) {
	b0, b1 := newStubBackend("b0"), newStubBackend("b1")
	defer b0.ts.Close()
	defer b1.ts.Close()
	f := stubFrontend(t, time.Hour, b0, b1)
	defer f.Close()

	b0.mode.Store(1) // b0 sheds, b1 healthy: all requests must succeed
	for i := 0; i < 20; i++ {
		status, body := frontendGet(t, f, fmt.Sprintf("/predict?vertex=%d", i))
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s (one shedding replica must not 429 the client)",
				i, status, body)
		}
	}
	for _, rs := range f.StatsSnapshot().Groups[0].Replicas {
		if !rs.Healthy {
			t.Fatalf("shedding replica %s tripped the health breaker: %+v", rs.Addr, rs)
		}
	}

	b1.mode.Store(1) // now everyone sheds
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/predict?vertex=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all replicas shedding: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if f.StatsSnapshot().Shed == 0 {
		t.Fatal("shed counter not incremented")
	}
}

// TestFrontendProbeRestoresHealth: a replica that failed its way to
// unhealthy comes back automatically once /healthz answers again.
func TestFrontendProbeRestoresHealth(t *testing.T) {
	b0, b1 := newStubBackend("b0"), newStubBackend("b1")
	defer b0.ts.Close()
	defer b1.ts.Close()
	f := stubFrontend(t, 10*time.Millisecond, b0, b1)
	defer f.Close()

	// Mode 3 fails both /predict (500) and /healthz (503): the replica
	// must trip the breaker and STAY down — mode 2 alone races the
	// prober, whose /healthz succeeds and flips it straight back.
	b0.mode.Store(3)
	for i := 0; i < 10; i++ {
		frontendGet(t, f, fmt.Sprintf("/predict?vertex=%d", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if !replicaHealthy(f, b0.ts.URL) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failing replica never marked unhealthy")
		}
		frontendGet(t, f, "/predict?vertex=1")
	}

	b0.mode.Store(0) // recovered: prober must restore it
	deadline = time.Now().Add(5 * time.Second)
	for !replicaHealthy(f, b0.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("prober never restored the recovered replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func replicaHealthy(f *Frontend, addr string) bool {
	for _, rs := range f.StatsSnapshot().Groups[0].Replicas {
		if rs.Addr == addr {
			return rs.Healthy
		}
	}
	return false
}

// TestFrontendReloadFanOut: POST /reload reaches every replica of every
// group with the body replayed to each; one refusing replica fails the
// fleet flip and the per-replica outcomes say who.
func TestFrontendReloadFanOut(t *testing.T) {
	backends := []*stubBackend{newStubBackend("r0"), newStubBackend("r1"), newStubBackend("r2")}
	for _, b := range backends {
		defer b.ts.Close()
	}
	f, err := NewFrontend(FrontendConfig{
		Groups: []GroupSpec{
			{Key: "group-0", Replicas: []string{backends[0].ts.URL, backends[1].ts.URL}},
			{Key: "group-1", Replicas: []string{backends[2].ts.URL}},
		},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/reload"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /reload: status %d, want 405", resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/reload", "application/octet-stream",
		bytes.NewReader([]byte("checkpoint-bytes")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reload status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Reloaded bool `json:"reloaded"`
		Replicas []struct {
			Group   string `json:"group"`
			Replica string `json:"replica"`
			Status  int    `json:"status"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad /reload payload %s: %v", body, err)
	}
	if !out.Reloaded || len(out.Replicas) != 3 {
		t.Fatalf("fan-out incomplete: %s", body)
	}
	for _, b := range backends {
		if b.reloads.Load() != 1 {
			t.Fatalf("replica %s saw %d reloads, want 1", b.name, b.reloads.Load())
		}
	}
	if f.StatsSnapshot().Reloads != 1 {
		t.Fatalf("frontend reloads counter %d, want 1", f.StatsSnapshot().Reloads)
	}

	backends[1].mode.Store(2) // one replica refuses: the flip must fail loudly
	resp, err = http.Post(ts.URL+"/reload", "application/octet-stream", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial reload: status %d, want 502: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"reloaded":false`)) {
		t.Fatalf("partial reload must report reloaded=false: %s", body)
	}
}

// TestFrontendOversizedBackendReply pins the backend response bound: a
// replica whose /predict reply exceeds maxBackendBody counts as a transport
// failure — retried on a sibling, and a 502 once no sibling is left.
func TestFrontendOversizedBackendReply(t *testing.T) {
	big, ok := newStubBackend("big"), newStubBackend("ok")
	defer big.ts.Close()
	defer ok.ts.Close()
	f := stubFrontend(t, time.Hour, big, ok)
	defer f.Close()

	big.mode.Store(4)
	for i := 0; i < 10; i++ {
		status, body := frontendGet(t, f, fmt.Sprintf("/predict?vertex=%d", i))
		if status != http.StatusOK || !strings.Contains(string(body), `"served_by":"ok"`) {
			t.Fatalf("request %d: status %d: %.200s (oversized reply must fail over)", i, status, body)
		}
	}
	if big.hits.Load() == 0 {
		t.Fatal("the oversized replica was never tried")
	}

	ok.mode.Store(4)
	status, body := frontendGet(t, f, "/predict?vertex=1")
	if status != http.StatusBadGateway {
		t.Fatalf("every replica oversized: status %d, want 502: %.200s", status, body)
	}
	if !strings.Contains(string(body), fmt.Sprintf("exceeds %d bytes", maxBackendBody)) {
		t.Fatalf("502 does not name the bound: %.200s", body)
	}
}

// TestFrontendReloadBodyLimit pins the inbound /reload bound: a checkpoint
// over maxReloadBody gets 413 and reaches no replica.
func TestFrontendReloadBodyLimit(t *testing.T) {
	b := newStubBackend("r0")
	defer b.ts.Close()
	f := stubFrontend(t, time.Hour, b)
	defer f.Close()

	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload",
		bytes.NewReader(make([]byte, maxReloadBody+1))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /reload: status %d, want 413: %s", rec.Code, rec.Body)
	}
	if b.reloads.Load() != 0 {
		t.Fatalf("oversized checkpoint reached the replica %d times", b.reloads.Load())
	}
}

// TestReloadLimitFitsInRepoCheckpoints pins how maxReloadBody was sized:
// every in-repo dataset's checkpoint fits, for both architectures, even at
// 16× the trainer's default hidden width.
func TestReloadLimitFitsInRepoCheckpoints(t *testing.T) {
	for _, name := range datasets.Names() {
		ds, err := datasets.Load(name, 0.01) // checkpoint size is independent of |V|
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range []Arch{ArchGraphSAGE, ArchGAT} {
			eng, err := NewEngine(ds, ModelSpec{Arch: arch, Hidden: 1024, NumLayers: 3, NumHeads: 1}, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := nn.WriteParams(&buf, eng.Params()); err != nil {
				t.Fatal(err)
			}
			if buf.Len() > maxReloadBody {
				t.Fatalf("%s %s checkpoint is %d bytes, over maxReloadBody %d",
					name, eng.Spec(), buf.Len(), maxReloadBody)
			}
		}
	}
}

// TestFrontendOversizedReloadReply pins the backend /reload reply bound: a
// reply over maxReloadReply fails that replica, so the fleet flip is a 502.
func TestFrontendOversizedReloadReply(t *testing.T) {
	b0, b1 := newStubBackend("r0"), newStubBackend("r1")
	defer b0.ts.Close()
	defer b1.ts.Close()
	f := stubFrontend(t, time.Hour, b0, b1)
	defer f.Close()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	b1.mode.Store(4)
	resp, err := http.Post(ts.URL+"/reload", "application/octet-stream", bytes.NewReader([]byte("ckpt")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("oversized reload reply: status %d, want 502: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"reloaded":false`)) ||
		!bytes.Contains(body, []byte(fmt.Sprintf("exceeds %d bytes", maxReloadReply))) {
		t.Fatalf("reload outcome does not report the oversized reply: %s", body)
	}
}

// TestServerReloadHotSwap pins the live-rollover contract on a single
// server: the gate (403 without EnableReload), rejection of a broken
// checkpoint with the old model left serving, and an accepted checkpoint
// flipping /predict to the new model's bit-exact logits with zero failed
// requests under concurrent load.
func TestServerReloadHotSwap(t *testing.T) {
	ds, m1, ckptA := trainedSageCheckpoint(t, 16, 2)
	fullA := m1.Forward(ds.Features, false)

	// Second model: same shapes, more training, different weights.
	res, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  model.Config{Hidden: 16, NumLayers: 2, Seed: 3},
		Epochs: 6, LR: 0.02, UseAdam: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bufB bytes.Buffer
	if err := nn.WriteParams(&bufB, res.Model.Params()); err != nil {
		t.Fatal(err)
	}
	ckptB := bufB.Bytes()
	fullB := res.Model.Forward(ds.Features, false)
	if err := rowsMatch(fullA.Row(0), fullB.Row(0)); err == nil {
		t.Fatal("fixture models are identical — reload test would prove nothing")
	}

	// Gate: reload must be opt-in.
	gated, err := New(ds, bytes.NewReader(ckptA), Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gated.Handler())
	resp, err := http.Post(ts.URL+"/reload", "application/octet-stream", bytes.NewReader(ckptB))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("reload without EnableReload: status %d, want 403", resp.StatusCode)
	}
	ts.Close()
	gated.Close()

	srv, err := New(ds, bytes.NewReader(ckptA), Config{
		Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		EmbedCacheBytes: 1 << 20, EnableReload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()

	probe := []int32{0, 7, int32(ds.G.NumVertices - 1)}
	fetch := func(v int32) []float32 {
		resp, err := http.Get(fmt.Sprintf("%s/predict?vertex=%d", ts.URL, v))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("vertex %d: status %d: %s", v, resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr.Logits
	}
	for _, v := range probe {
		bitsEqual(t, fetch(v), fullA.Row(int(v)), fmt.Sprintf("pre-reload vertex %d", v))
	}

	// A truncated checkpoint must be rejected — and the old model must
	// keep serving, embedding cache intact.
	resp, err = http.Post(ts.URL+"/reload", "application/octet-stream", bytes.NewReader(ckptB[:len(ckptB)/2]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken checkpoint: status %d, want 422", resp.StatusCode)
	}
	for _, v := range probe {
		bitsEqual(t, fetch(v), fullA.Row(int(v)), fmt.Sprintf("post-rejected-reload vertex %d", v))
	}

	// Live flip under load: no request may fail while the swap happens,
	// and every answer is bit-exact under model A or model B — never a mix
	// within a row.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loadErrs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := (w*31 + i*3) % ds.G.NumVertices
				resp, err := http.Get(fmt.Sprintf("%s/predict?vertex=%d", ts.URL, v))
				if err != nil {
					loadErrs <- err
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					loadErrs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					loadErrs <- fmt.Errorf("vertex %d: status %d mid-reload", v, resp.StatusCode)
					return
				}
				if rowsMatch(pr.Logits, fullA.Row(v)) != nil && rowsMatch(pr.Logits, fullB.Row(v)) != nil {
					loadErrs <- fmt.Errorf("vertex %d: logits match neither model across the swap", v)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	resp, err = http.Post(ts.URL+"/reload", "application/octet-stream", bytes.NewReader(ckptB))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload failed: %d: %s", resp.StatusCode, body)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(loadErrs)
	for err := range loadErrs {
		t.Fatal(err)
	}

	// Post-flip: every vertex serves model B bits (embedding cache was
	// reset at the flip — no stale model-A rows).
	for _, v := range probe {
		bitsEqual(t, fetch(v), fullB.Row(int(v)), fmt.Sprintf("post-reload vertex %d", v))
	}
	if got := srv.StatsSnapshot().Reloads; got != 1 {
		t.Fatalf("reloads stat %d, want 1", got)
	}
}

// TestReplicatedServingConformance extends the bit-identity acceptance pin
// over the frontend path: for 1/2/4 shards × 1/2 replicas, exact-mode
// /predict logits through the frontend are bit-identical to the full-graph
// forward pass — including after a whole replica fleet is killed, and
// across a fleet-wide /reload to a new checkpoint — and each request is
// served by one backend of the shard group the frontend hashed it to.
func TestReplicatedServingConformance(t *testing.T) {
	ds, m, ckpt := trainedSageCheckpoint(t, 16, 2)
	full := m.Forward(ds.Features, false)
	cfg := Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2, EnableReload: true, FeatureCacheBytes: 1 << 20}

	// The rollover fixture: same shapes, different weights.
	res, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  model.Config{Hidden: 16, NumLayers: 2, Seed: 3},
		Epochs: 6, LR: 0.02, UseAdam: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bufB bytes.Buffer
	if err := nn.WriteParams(&bufB, res.Model.Params()); err != nil {
		t.Fatal(err)
	}
	ckptB := bufB.Bytes()
	fullB := res.Model.Forward(ds.Features, false)

	probe := []int32{0, 1, 5, 17, int32(ds.G.NumVertices / 2), int32(ds.G.NumVertices - 1)}
	for _, shards := range []int{1, 2, 4} {
		for _, replicas := range []int{1, 2} {
			t.Run(fmt.Sprintf("%d-shard/%d-replica", shards, replicas), func(t *testing.T) {
				fleet := startFleet(t, ds, ckpt, cfg, Topology{
					Shards: shards, Replicas: replicas, Fabric: FabricInproc,
					Frontend: "127.0.0.1:0", FrontendConfig: FrontendConfig{MaxFails: 2, ProbeInterval: time.Hour},
				})
				defer fleet.Close()
				base := "http://" + fleet.FrontendAddr

				check := func(base string, ref func(int) []float32, what string) {
					for _, v := range probe {
						resp, err := http.Get(fmt.Sprintf("%s/predict?vertex=%d", base, v))
						if err != nil {
							t.Fatalf("%s vertex %d: %v", what, v, err)
						}
						body, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("%s vertex %d: status %d: %s", what, v, resp.StatusCode, body)
						}
						var pr PredictResponse
						if err := json.Unmarshal(body, &pr); err != nil {
							t.Fatal(err)
						}
						bitsEqual(t, pr.Logits, ref(int(v)), fmt.Sprintf("%s vertex %d", what, v))
					}
				}
				check(base, full.Row, "frontend path")

				// The frontend's consistent hash is the one placement
				// decision: vertex v is served by a rank GroupFor(v) of
				// some replica, and by no other backend.
				for _, v := range probe {
					want := predictCounts(fleet.Servers)
					getPredict(t, fleet.FrontendAddr, v)
					served := -1
					for b, got := range predictCounts(fleet.Servers) {
						if got == want[b] {
							continue
						}
						if got != want[b]+1 || served >= 0 || b%shards != fleet.Frontend.GroupFor(v) {
							t.Fatalf("vertex %d (group %d): backend %d (rank %d) predicts %d → %d; served by %d",
								v, fleet.Frontend.GroupFor(v), b, b%shards, want[b], got, served)
						}
						served = b
					}
					if served < 0 {
						t.Fatalf("vertex %d: no backend counted the request", v)
					}
				}

				// R=1 rolls over through the primary frontend.
				reloadVia := base
				if replicas > 1 {
					// Kill fleet 0 outright: the survivors must keep the
					// answers bit-identical and error-free.
					fleet.Kill(0)
					check(base, full.Row, "after replica kill")
					if st := fleet.Frontend.StatsSnapshot(); st.Errors != 0 {
						t.Fatalf("replica kill surfaced %d frontend errors", st.Errors)
					}

					// Fleet-wide rollover through the frontend: dead
					// replicas fail the flip (they're part of the fleet),
					// so this runs against the surviving topology only.
					_, addr2, err := fleet.AddFrontend("127.0.0.1:0", 1)
					if err != nil {
						t.Fatal(err)
					}
					reloadVia = "http://" + addr2
				}
				resp, err := http.Post(reloadVia+"/reload", "application/octet-stream", bytes.NewReader(ckptB))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("fleet reload: status %d: %s", resp.StatusCode, body)
				}
				// Post-rollover bit-identity to the NEW model.
				check(reloadVia, fullB.Row, "post-rollover")
			})
		}
	}
}
