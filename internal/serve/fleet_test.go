package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestFleetDropsStalledHeader pins the read-header bound on every fleet
// listener: a client that sends half a request header to a backend or to
// the frontend is disconnected within ReadHeaderTimeout.
func TestFleetDropsStalledHeader(t *testing.T) {
	t.Parallel()
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	fleet := startFleet(t, ds, ckpt, Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}, Topology{Frontend: "127.0.0.1:0"})
	defer fleet.Close()
	deadline := time.Now().Add(ReadHeaderTimeout + 2*time.Second)
	var conns []net.Conn
	for _, addr := range []string{fleet.Addrs[0], fleet.FrontendAddr} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "GET /predict?vertex=1 HTTP/1.1\r\nHost: fleet\r\n"); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	for i, conn := range conns {
		conn.SetReadDeadline(deadline)
		var ne net.Error
		if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("listener %d still holds a half-sent header after %v", i, ReadHeaderTimeout)
		}
	}
}

// TestFleetCloseFinishesInflight pins Close's drain: a /predict in flight
// through the frontend when Close starts still gets its 200 and its bits,
// and Close waits for it.
func TestFleetCloseFinishesInflight(t *testing.T) {
	ds, m, ckpt := trainedSageCheckpoint(t, 16, 2)
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	fleet := startFleet(t, ds, ckpt, Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}, Topology{
		Shards: 2, Frontend: "127.0.0.1:0",
		// Hold the first /predict (the frontend's) until released.
		Handler: func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/predict" && held.CompareAndSwap(false, true) {
					close(entered)
					<-release
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	var pr PredictResponse
	replied := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + fleet.FrontendAddr + "/predict?vertex=5")
		if err == nil {
			defer resp.Body.Close()
			if err = json.NewDecoder(resp.Body).Decode(&pr); resp.StatusCode != http.StatusOK {
				err = errors.New(resp.Status)
			}
		}
		replied <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		fleet.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a request in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-replied; err != nil {
		t.Fatalf("in-flight /predict across Close: %v", err)
	}
	bitsEqual(t, pr.Logits, m.Forward(ds.Features, false).Row(5), "in-flight /predict across Close")
	<-closed
}
