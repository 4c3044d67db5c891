// Package e2e runs distgnn-train and distgnn-serve as real OS processes:
// multi-process training over loopback TCP, and serving fleets of spawned
// ranks, replicas and a frontend, queried over HTTP. TestMain builds both
// binaries once and trains the checkpoints the serving smokes load; each
// smoke is one subtest of TestSmoke. Run with
//
//	go test -run . ./e2e
//
// The package skips under -short, as the other full-experiment smokes do.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"distgnn/internal/obs"
	"distgnn/internal/serve"
)

// The binaries and checkpoints TestMain leaves for the subtests.
var (
	trainBin, serveBin string
	ckpt, ckpt2        string // 3- and 4-epoch checkpoints of one model
)

// serveFlags match the trainer's model flags for ckpt and ckpt2.
var serveFlags = []string{"-dataset", "reddit-sim", "-scale", "0.05", "-hidden", "16", "-layers", "2"}

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "distgnn-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := 1
	if err := setup(dir); err != nil {
		fmt.Fprintln(os.Stderr, "e2e setup:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// setup builds the two binaries into dir and trains ckpt and ckpt2.
func setup(dir string) error {
	trainBin = filepath.Join(dir, "distgnn-train")
	serveBin = filepath.Join(dir, "distgnn-serve")
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"distgnn/cmd/distgnn-train", "distgnn/cmd/distgnn-serve").CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	ckpt = filepath.Join(dir, "ckpt.dgnp")
	ckpt2 = filepath.Join(dir, "ckpt2.dgnp")
	for _, c := range []struct {
		path, epochs string
	}{{ckpt, "3"}, {ckpt2, "4"}} {
		args := append([]string{"-epochs", c.epochs, "-save", c.path}, serveFlags...)
		out, err := exec.Command(trainBin, args...).CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("checkpoint written")) {
			return fmt.Errorf("train %s: %v\n%s", c.path, err, out)
		}
	}
	return nil
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level smokes skipped under -short")
	}
	t.Run("training", testTraining)
	t.Run("minibatch", testMinibatch)
	t.Run("serve", testServe)
	t.Run("sharded", testSharded)
	t.Run("observability", testObservability)
	t.Run("replica-kill", testReplicaKill)
	t.Run("reload", testReload)
	t.Run("streaming", testStreaming)
}

// testTraining: 4-rank cd-0 and cd-rs runs in-process and as real OS
// processes over loopback TCP both exit 0 (the trainer exits nonzero on a
// non-finite loss), and their epoch lines (loss and the simulated
// epoch/LAT/RAT), accuracy and final-parameter digest are byte-identical —
// one rank loop and one collective path on both fabrics, down to the last
// bit of every weight.
func testTraining(t *testing.T) {
	for _, algo := range []string{"cd-0", "cd-rs"} {
		args := []string{"-sockets", "4", "-algo", algo, "-delay", "2",
			"-dataset", "reddit-sim", "-scale", "0.05", "-epochs", "8"}
		inproc := train(t, args...)
		tcp := train(t, append([]string{"-transport", "tcp", "-spawn-local"}, args...)...)
		requireDigest(t, inproc)
		if got, want := epochLines(tcp, nil), epochLines(inproc, nil); got != want {
			t.Errorf("%s: tcp epoch/accuracy lines differ from in-process:\n%s\nvs\n%s", algo, got, want)
		}
	}
}

// testMinibatch: 2-rank sampled mini-batch training with sharded features,
// in-process and as 2 OS processes over loopback TCP, gives byte-identical
// loss traces, halo row counts (every rank's fetches), accuracy and
// final-parameter digest once the wall times are stripped.
func testMinibatch(t *testing.T) {
	args := []string{"-minibatch", "-fanouts", "10,5", "-batch", "256", "-sockets", "2",
		"-dataset", "reddit-sim", "-scale", "0.05", "-epochs", "4"}
	wall := regexp.MustCompile(`time [^ ]*| \(wall.*`)
	inproc := train(t, args...)
	tcp := train(t, append(args, "-transport", "tcp", "-spawn-local")...)
	requireDigest(t, inproc)
	if !strings.Contains(inproc, "\nhalo: ") {
		t.Fatalf("sharded training log has no halo line:\n%s", inproc)
	}
	if got, want := epochLines(tcp, wall), epochLines(inproc, wall); got != want {
		t.Errorf("tcp epoch/halo/accuracy lines differ from in-process:\n%s\nvs\n%s", got, want)
	}
}

// testServe: a single-process server answers /predict with finite logits
// for the asked vertex and counts it in /stats.
func testServe(t *testing.T) {
	port := freePorts(t, 1)
	f := startFleet(t, "-checkpoint", ckpt, "-addr", addr(port))
	f.waitHealthy(t, port)
	var p serve.PredictResponse
	f.getJSON(t, port, "/predict?vertex=1", &p)
	if p.Vertex != 1 || len(p.Logits) == 0 {
		t.Fatalf("predict: %+v", p)
	}
	checkFinite(t, p.Logits)
	var st serve.Stats
	f.getJSON(t, port, "/stats", &st)
	if st.Predicts < 1 || st.Mode != "exact" {
		t.Fatalf("stats: %+v", st)
	}
}

// testSharded: a 2-shard fleet (rank 0 forks rank 1, comm over loopback
// TCP) answers the same vertex on both ranks with the same bytes, and each
// entry rank served its own request.
func testSharded(t *testing.T) {
	port := freePorts(t, 2)
	f := startFleet(t, "-checkpoint", ckpt, "-shards", "2", "-transport", "tcp", "-spawn-local",
		"-addr", addr(port))
	f.waitHealthy(t, port, port+1)
	a := f.get(t, port, "/predict?vertex=5")
	b := f.get(t, port+1, "/predict?vertex=5")
	if !bytes.Equal(a, b) {
		t.Fatalf("rank responses differ:\n%s\n%s", a, b)
	}
	var p serve.PredictResponse
	decode(t, a, &p)
	checkFinite(t, p.Logits)
	var s0, s1 serve.Stats
	f.getJSON(t, port, "/stats", &s0)
	f.getJSON(t, port+1, "/stats", &s1)
	if s0.Shard == nil || s1.Shard == nil {
		t.Fatalf("stats without a shard block: %+v, %+v", s0, s1)
	}
	if s0.Shard.Shards != 2 || s1.Shard.Shards != 2 {
		t.Errorf("shard counts %d, %d, want 2", s0.Shard.Shards, s1.Shard.Shards)
	}
	if s0.Shard.OwnedVertices+s1.Shard.OwnedVertices <= 0 {
		t.Errorf("no owned vertices: %+v, %+v", *s0.Shard, *s1.Shard)
	}
	// Whichever rank owns vertex 5, the rank a request reached served it.
	if s0.Predicts != 1 || s1.Predicts != 1 {
		t.Errorf("predicts %d, %d, want 1 on each entry rank", s0.Predicts, s1.Predicts)
	}
}

// metricLine is one Prometheus text-exposition sample line.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?` +
	` (NaN|[-+]?(Inf|[0-9.eE+-]+))$`)

// testObservability: a 2-shard fleet with metrics and tracing on. Every
// /metrics line on both ranks parses as Prometheus text exposition,
// /healthz carries rank identity, the trace ring is not empty, and with
// -slow-threshold 0 some trace ID appears in both ranks' slow logs — a
// request attributed across the fleet.
func testObservability(t *testing.T) {
	port := freePorts(t, 2)
	slowLog := filepath.Join(t.TempDir(), "obs-slow.jsonl")
	f := startFleet(t, "-checkpoint", ckpt, "-shards", "2", "-transport", "tcp", "-spawn-local",
		"-metrics", "-trace", "-slow-log", slowLog, "-slow-threshold", "0", "-addr", addr(port))
	f.waitHealthy(t, port, port+1)
	for v := range 20 {
		f.get(t, port, fmt.Sprintf("/predict?vertex=%d", v))
		f.get(t, port+1, fmt.Sprintf("/predict?vertex=%d", v))
	}
	metrics := [][]byte{f.get(t, port, "/metrics"), f.get(t, port+1, "/metrics")}
	var hz serve.Healthz
	f.getJSON(t, port, "/healthz", &hz)
	var recent []obs.Trace
	f.getJSON(t, port, "/debug/trace/recent", &recent)
	f.stop(t) // flushes and closes the slow logs
	logs, _ := filepath.Glob(strings.TrimSuffix(slowLog, ".jsonl") + ".rank*.jsonl")
	slices.Sort(logs)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for r, m := range metrics {
			t.Logf("rank %d /metrics:\n%s", r, m)
		}
		for _, path := range logs {
			b, _ := os.ReadFile(path)
			t.Logf("%s:\n%s", path, b)
		}
	})

	for r, m := range metrics {
		names := map[string]bool{}
		for _, ln := range strings.Split(string(m), "\n") {
			if ln == "" || strings.HasPrefix(ln, "#") {
				continue
			}
			if !metricLine.MatchString(ln) {
				t.Errorf("rank %d: bad exposition line %q", r, ln)
			}
			names[strings.FieldsFunc(ln, func(c rune) bool { return c == '{' || c == ' ' })[0]] = true
		}
		if !names["distgnn_serve_predicts_total"] {
			t.Errorf("rank %d: no distgnn_serve_predicts_total in /metrics", r)
		}
	}
	if hz.Role != "server" || hz.Shards != 2 || (hz.Rank != 0 && hz.Rank != 1) {
		t.Errorf("healthz: %+v", hz)
	}
	if len(recent) == 0 {
		t.Error("empty trace ring")
	}
	if len(logs) != 2 {
		t.Fatalf("want 2 per-rank slow logs, got %v", logs)
	}
	ids := make([]map[string]bool, 2)
	for r, path := range logs {
		ids[r] = map[string]bool{}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var tr obs.Trace
			decode(t, []byte(ln), &tr)
			ids[r][tr.TraceID] = true
		}
	}
	shared := 0
	for id := range ids[0] {
		if ids[1][id] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no trace ID crossed ranks: %d vs %d traces", len(ids[0]), len(ids[1]))
	}
	t.Logf("%d trace IDs attributed across both ranks", shared)
}

// reloadReply is the POST /reload payload of a server and of the frontend
// (whose replicas list gives each backend's status).
type reloadReply struct {
	Reloaded bool `json:"reloaded"`
	Replicas []struct {
		Replica string `json:"replica"`
		Status  int    `json:"status"`
	} `json:"replicas"`
}

// testReplicaKill: a 2-shard × 2-replica fleet of OS processes behind the
// consistent-hash frontend. With replica 0 (both of its ranks) SIGKILLed,
// every request still returns 200 with the same bytes, the frontend
// surfaces no error and marks exactly replica 0 unhealthy; a fleet-wide
// /reload during load then refuses atomically (502) because of the dead
// replica, names the survivors' 200s, and drops no request.
func testReplicaKill(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("finding the backends by PID reads /proc")
	}
	port := freePorts(t, 5) // frontend, then backend b = rep·2 + rank
	f := startFleet(t, "-checkpoint", ckpt, "-shards", "2", "-replicas", "2", "-transport", "tcp",
		"-spawn-local", "-reload", "-addr", addr(port))
	f.waitHealthy(t, port, port+1, port+2, port+3, port+4)
	before := f.get(t, port, "/predict?vertex=5")

	// Replica 0's ranks both take its rank-0 address as -addr and listen
	// on its port + rank.
	for r, p := range []int{port + 1, port + 2} {
		kill(childWithArgs(t, f.cmd.Process.Pid, "-addr="+addr(port+1), fmt.Sprintf("-rank=%d", r)))
		waitDown(t, p)
	}
	for v := 1; v <= 30; v++ {
		f.get(t, port, fmt.Sprintf("/predict?vertex=%d", v))
	}
	if after := f.get(t, port, "/predict?vertex=5"); !bytes.Equal(before, after) {
		t.Fatalf("failover changed the answer:\n%s\n%s", before, after)
	}
	var st serve.FrontendStats
	f.getJSON(t, port, "/stats", &st)
	if st.Errors != 0 || st.Retries < 1 {
		t.Errorf("frontend errors %d (want 0), retries %d (want ≥1)", st.Errors, st.Retries)
	}
	healthy := map[string]bool{}
	for _, g := range st.Groups {
		for _, r := range g.Replicas {
			healthy[r.Addr] = r.Healthy
		}
	}
	for p, want := range map[int]bool{port + 1: false, port + 2: false, port + 3: true, port + 4: true} {
		if got, ok := healthy["http://"+addr(p)]; !ok || got != want {
			t.Errorf("backend %d healthy=%v (listed %v), want %v: %v", p, got, ok, want, healthy)
		}
	}

	codes := f.load(port, 40)
	status, body := f.post(t, port, "/reload?checkpoint="+ckpt2, nil)
	if bad := codes(); len(bad) > 0 {
		t.Errorf("mid-reload load saw non-200s: %v", bad)
	}
	if status != http.StatusBadGateway {
		t.Fatalf("reload with a dead replica: status %d, want 502: %s", status, body)
	}
	var rep reloadReply
	decode(t, body, &rep)
	statuses := map[string]int{}
	for _, r := range rep.Replicas {
		statuses[r.Replica] = r.Status
	}
	if rep.Reloaded || statuses["http://"+addr(port+3)] != 200 || statuses["http://"+addr(port+4)] != 200 {
		t.Errorf("reload reply: %s", body)
	}
}

// testReload: a single server hot-swaps its checkpoint under load with no
// request dropped, and answers with the new model afterwards.
func testReload(t *testing.T) {
	port := freePorts(t, 1)
	f := startFleet(t, "-checkpoint", ckpt, "-reload", "-addr", addr(port))
	f.waitHealthy(t, port)
	var before, after serve.PredictResponse
	f.getJSON(t, port, "/predict?vertex=5", &before)
	codes := f.load(port, 60)
	status, body := f.post(t, port, "/reload?checkpoint="+ckpt2, nil)
	if bad := codes(); len(bad) > 0 {
		t.Errorf("reload dropped requests: %v", bad)
	}
	var rep reloadReply
	if decode(t, body, &rep); status != http.StatusOK || !rep.Reloaded {
		t.Fatalf("reload: status %d: %s", status, body)
	}
	f.getJSON(t, port, "/predict?vertex=5", &after)
	if slices.Equal(before.Logits, after.Logits) {
		t.Error("reload did not swap the model")
	}
	var st serve.Stats
	if f.getJSON(t, port, "/stats", &st); st.Reloads != 1 {
		t.Errorf("stats reloads %d, want 1", st.Reloads)
	}
}

// testStreaming: a 2-shard fleet with -updates takes /update batches
// interleaved with queries (caches warm when each invalidation sweep
// runs); a fresh fleet reaches the same graph through one bulk /update on
// cold caches. Final answers agree across both entry ranks and both
// fleets byte for byte — the end-to-end form of the mutation pin.
func testStreaming(t *testing.T) {
	batches := [][][2]int32{
		{{1, 2}, {3, 4}, {5, 6}, {2, 7}},
		{{7, 1}, {8, 9}, {10, 2}},
		{{2, 3}, {11, 12}, {6, 5}},
	}
	const probe = 16
	run := func(interleaved bool) [][]byte {
		port := freePorts(t, 2)
		f := startFleet(t, "-checkpoint", ckpt, "-shards", "2", "-transport", "tcp", "-spawn-local",
			"-updates", "-addr", addr(port))
		defer f.stop(t)
		f.waitHealthy(t, port, port+1)
		update := func(edges [][2]int32) {
			b, _ := json.Marshal(serve.UpdateRequest{Edges: edges})
			status, body := f.post(t, port, "/update", b)
			var u serve.UpdateResponse
			if decode(t, body, &u); status != http.StatusOK || u.Applied != len(edges) || len(u.Ranks) != 2 {
				t.Fatalf("update: status %d: %s", status, body)
			}
		}
		if interleaved {
			for _, b := range batches {
				for v := range probe { // warm both ranks' caches first
					f.get(t, port, fmt.Sprintf("/predict?vertex=%d", v))
					f.get(t, port+1, fmt.Sprintf("/predict?vertex=%d", v))
				}
				update(b)
			}
		} else {
			update(slices.Concat(batches...))
		}
		final := make([][]byte, probe)
		for v := range final {
			a := f.get(t, port, fmt.Sprintf("/predict?vertex=%d", v))
			if b := f.get(t, port+1, fmt.Sprintf("/predict?vertex=%d", v)); !bytes.Equal(a, b) {
				t.Fatalf("entry ranks disagree on vertex %d:\n%s\n%s", v, a, b)
			}
			final[v] = a
		}
		var st serve.Stats
		f.getJSON(t, port, "/stats", &st)
		if st.Stream == nil || st.Stream.EdgesApplied != 10 || st.Stream.OverlayEdges != 10 {
			t.Fatalf("stream stats: %+v", st.Stream)
		}
		return final
	}
	interleaved, fresh := run(true), run(false)
	for v := range interleaved {
		if !bytes.Equal(interleaved[v], fresh[v]) {
			t.Errorf("vertex %d: interleaved fleet %s, fresh fleet %s", v, interleaved[v], fresh[v])
		}
	}
}

// train runs distgnn-train to completion and returns its stdout, which
// must carry an accuracy line.
func train(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, trainBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// A hung run is interrupted as an operator would interrupt it, so the
	// trainer takes its spawned ranks down with it.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Run(); err != nil {
		t.Fatalf("distgnn-train %s: %v\n%s%s", strings.Join(args, " "), err, &stdout, &stderr)
	}
	if !strings.Contains("\n"+stdout.String(), "\naccuracy:") {
		t.Fatalf("distgnn-train %s: no accuracy line:\n%s", strings.Join(args, " "), &stdout)
	}
	return stdout.String()
}

// epochLines keeps the epoch, halo, accuracy and final-parameter digest
// lines of a training log, with strip's matches deleted from each.
func epochLines(out string, strip *regexp.Regexp) string {
	var keep []string
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "epoch") || strings.HasPrefix(ln, "halo:") ||
			strings.HasPrefix(ln, "accuracy") || strings.HasPrefix(ln, "params digest") {
			if strip != nil {
				ln = strip.ReplaceAllString(ln, "")
			}
			keep = append(keep, ln)
		}
	}
	return strings.Join(keep, "\n")
}

// requireDigest fails t unless the training log prints its final
// parameters' digest, so epochLines comparisons cover the weights.
func requireDigest(t *testing.T, out string) {
	t.Helper()
	if !strings.Contains(out, "\nparams digest ") {
		t.Fatalf("training log has no params digest line:\n%s", out)
	}
}

// freePorts returns the first of n consecutive loopback ports that are
// free now, picked at random below the Linux ephemeral range.
func freePorts(t *testing.T, n int) int {
	t.Helper()
	for range 100 {
		base := 20000 + rand.IntN(10000)
		var lns []net.Listener
		for p := base; p < base+n; p++ {
			ln, err := net.Listen("tcp", addr(p))
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			ln.Close()
		}
		if len(lns) == n {
			return base
		}
	}
	t.Fatalf("no %d consecutive free ports", n)
	return 0
}

func addr(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }

// fleet is one distgnn-serve parent process and the HTTP client the test
// queries it with.
type fleet struct {
	cmd    *exec.Cmd
	log    string // the processes' combined stdout and stderr
	client *http.Client
	exited chan struct{} // closed once the parent has exited
	err    error         // the parent's exit, valid after exited
	once   sync.Once
}

// startFleet starts distgnn-serve with the shared model flags plus args
// and stops it when the test ends.
func startFleet(t *testing.T, args ...string) *fleet {
	t.Helper()
	f := &fleet{
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}},
		exited: make(chan struct{}),
	}
	// A file, not a pipe: a spawned process that outlives the parent
	// would hold a pipe open and keep Wait from returning.
	out, err := os.CreateTemp(t.TempDir(), "fleet-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	f.log = out.Name()
	f.cmd = exec.Command(serveBin, append(slices.Clone(serveFlags), args...)...)
	f.cmd.Stdout, f.cmd.Stderr = out, out
	if err := f.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		f.err = f.cmd.Wait()
		close(f.exited)
	}()
	t.Cleanup(func() { f.stop(t) })
	return f
}

// output returns what the fleet's processes have printed so far.
func (f *fleet) output() string {
	b, _ := os.ReadFile(f.log)
	return string(b)
}

// stop sends the parent SIGTERM and checks that it drains and exits 0
// and that none of the processes it spawned outlives it. A fleet that
// does not exit is killed, children included.
func (f *fleet) stop(t *testing.T) {
	f.once.Do(func() {
		children := childPIDs(f.cmd.Process.Pid)
		f.client.CloseIdleConnections()
		f.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-f.exited:
		case <-time.After(serve.ShutdownTimeout + 20*time.Second):
			t.Errorf("fleet still running after SIGTERM; killing it")
			f.cmd.Process.Kill()
			<-f.exited
		}
		if f.err != nil {
			t.Errorf("fleet parent exited with %v, want 0; output:\n%s", f.err, f.output())
		}
		for _, pid := range children {
			if isServeProcess(pid) {
				t.Errorf("spawned process %d survived its parent", pid)
				kill(pid)
			}
		}
	})
}

// waitHealthy polls /healthz on every port until each answers 200,
// failing the test if the fleet exits first or a minute passes.
func (f *fleet) waitHealthy(t *testing.T, ports ...int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for _, p := range ports {
		for {
			resp, err := f.client.Get("http://" + addr(p) + "/healthz")
			if err == nil {
				var hz serve.Healthz
				err = json.NewDecoder(resp.Body).Decode(&hz)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK && hz.Status == "ok" {
					break
				}
			}
			select {
			case <-f.exited:
				t.Fatalf("fleet exited before port %d was healthy (%v):\n%s", p, f.err, f.output())
			case <-time.After(50 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("port %d not healthy after a minute:\n%s", p, f.output())
			}
		}
	}
}

// waitDown polls until nothing accepts connections on port.
func waitDown(t *testing.T, port int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		c, err := net.Dial("tcp", addr(port))
		if err != nil {
			return
		}
		c.Close()
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("port %d still accepting after its process was killed", port)
}

// get fetches path from port and fails the test unless it answers 200.
func (f *fleet) get(t *testing.T, port int, path string) []byte {
	t.Helper()
	resp, err := f.client.Get("http://" + addr(port) + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s on %d: %s: %s", path, port, resp.Status, body)
	}
	return body
}

// getJSON is get decoded into v.
func (f *fleet) getJSON(t *testing.T, port int, path string, v any) {
	t.Helper()
	decode(t, f.get(t, port, path), v)
}

// post POSTs a JSON body and returns the status and reply body.
func (f *fleet) post(t *testing.T, port int, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := f.client.Post("http://"+addr(port)+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// load issues n concurrent /predict requests in the background; the
// returned func waits for them and lists every one that did not get a 200.
func (f *fleet) load(port, n int) func() []string {
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := f.client.Get(fmt.Sprintf("http://%s/predict?vertex=%d", addr(port), i%100))
			msg := ""
			if err != nil {
				msg = err.Error()
			} else {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					msg = resp.Status
				}
			}
			if msg != "" {
				mu.Lock()
				bad = append(bad, fmt.Sprintf("vertex %d: %s", i%100, msg))
				mu.Unlock()
			}
		}()
	}
	return func() []string {
		wg.Wait()
		return bad
	}
}

func decode(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decode %T: %v: %s", v, err, b)
	}
}

func checkFinite(t *testing.T, logits []float32) {
	t.Helper()
	for i, v := range logits {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite logit %d: %v", i, v)
		}
	}
}

// childPIDs lists the processes whose parent is pid, read from /proc (nil
// where there is none).
func childPIDs(pid int) []int {
	ents, _ := os.ReadDir("/proc")
	var kids []int
	for _, e := range ents {
		child, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command: state, ppid, ...
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) > 1 && fields[1] == strconv.Itoa(pid) {
			kids = append(kids, child)
		}
	}
	return kids
}

// cmdline returns a process's arguments from /proc (nil once it is gone
// or a zombie).
func cmdline(pid int) []string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
	if err != nil || len(b) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(b), "\x00"), "\x00")
}

// isServeProcess reports whether pid is a live distgnn-serve of this run.
func isServeProcess(pid int) bool {
	args := cmdline(pid)
	return len(args) > 0 && args[0] == serveBin
}

// childWithArgs returns the child of parent whose arguments include every
// one of args.
func childWithArgs(t *testing.T, parent int, args ...string) int {
	t.Helper()
	for _, pid := range childPIDs(parent) {
		cmd := cmdline(pid)
		if !slices.ContainsFunc(args, func(a string) bool { return !slices.Contains(cmd, a) }) {
			return pid
		}
	}
	t.Fatalf("no child of %d runs with %v", parent, args)
	return 0
}

// kill sends pid SIGKILL.
func kill(pid int) {
	if p, err := os.FindProcess(pid); err == nil {
		p.Kill()
	}
}
