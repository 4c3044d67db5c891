package main

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"distgnn/internal/serve"
)

// TestReplicatedLayout pins the replicated address layout the e2e smoke
// TestSmoke/replica-kill relies on: with the frontend on -addr
// 127.0.0.1:8450, -shards 2 and -replicas 2, backend b = rep·2 + rank
// listens on 8451 + b, so replica 0 (whose processes the smoke finds by
// their -addr and SIGKILLs) is exactly 8451 and 8452.
func TestReplicatedLayout(t *testing.T) {
	const shards = 2
	backends, err := serve.BackendAddrs("127.0.0.1:8450", shards*2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:8451", "127.0.0.1:8452", "127.0.0.1:8453", "127.0.0.1:8454"}
	if !reflect.DeepEqual(backends, want) {
		t.Fatalf("backends %v, want %v", backends, want)
	}
	registries := []string{"127.0.0.1:9000", "127.0.0.1:9001"}
	for b, addr := range want {
		rep, r := b/shards, b%shards
		registry := "-comm-peers=" + registries[rep]
		if r == 0 {
			registry = "-comm-listen=" + registries[rep]
		}
		args := rankArgs(backends, registries, shards, b)
		for _, arg := range []string{"-addr=" + addr, fmt.Sprintf("-rank=%d", r), "-shards=2", "-transport=tcp",
			"-peers=" + strings.Join(want[rep*shards:rep*shards+shards], ","), registry} {
			if !slices.Contains(args, arg) {
				t.Fatalf("backend %d args %v lack %s", b, args, arg)
			}
		}
	}
	if args := rankArgs(backends, registries, 1, 3); !slices.Contains(args, "-transport=inproc") ||
		!slices.Contains(args, "-addr=127.0.0.1:8454") {
		t.Fatalf("1-shard replica args %v", args)
	}
}

func TestShardHTTPAddrs(t *testing.T) {
	got, err := shardHTTPAddrs("", "127.0.0.1:8441", 3)
	if want := []string{"127.0.0.1:8441", "127.0.0.1:8442", "127.0.0.1:8443"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("derived addrs %v (%v), want %v", got, err, want)
	}
	got, err = shardHTTPAddrs("h0:1, h1:2", "127.0.0.1:8441", 2)
	if want := []string{"h0:1", "h1:2"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("-peers addrs %v (%v), want %v", got, err, want)
	}
	if _, err := shardHTTPAddrs("h0:1,h1:2", "127.0.0.1:8441", 3); err == nil ||
		!strings.Contains(err.Error(), "lists 2 addresses for 3 shards") {
		t.Fatalf("length mismatch: err %v", err)
	}
	if _, err := shardHTTPAddrs("", "no-port", 2); err == nil {
		t.Fatal("an -addr without a port must be rejected")
	}
}

// TestSlowLogNaming pins the per-instance slow-log file names: the
// observability smoke globs rank*.jsonl.
func TestSlowLogNaming(t *testing.T) {
	for _, tc := range [][2]string{
		{slowLogPath("logs/slow.jsonl", "rank1-8401"), "logs/slow.rank1-8401.jsonl"},
		{slowLogPath("slow", "frontend-8399"), "slow.frontend-8399"},
		{portTag("127.0.0.1:8400"), "8400"},
		{portTag("/run/serve.sock"), "_run_serve.sock"},
		{instanceTag("server", 1, "127.0.0.1:8471"), "rank1-8471"},
		{instanceTag("server", -1, "127.0.0.1:8399"), "8399"},
		{instanceTag("frontend", -1, "127.0.0.1:8450"), "frontend-8450"},
	} {
		if tc[0] != tc[1] {
			t.Fatalf("got %q, want %q", tc[0], tc[1])
		}
	}
}
