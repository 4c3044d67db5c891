package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins which flag combinations distgnn-train refuses before
// doing any work: -save only writes a single-socket full-batch checkpoint,
// so asking for it beside -minibatch or -sockets >1 is an error rather than
// a run that ends with no file.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name      string
		minibatch bool
		transport string
		shards    int
		sockets   int
		save      string
		wantErr   string // "" = accepted
	}{
		{"single-socket save", false, "inproc", 0, 1, "m.dgnp", ""},
		{"distributed no save", false, "tcp", 0, 4, "", ""},
		{"minibatch no save", true, "inproc", 2, 1, "", ""},
		{"sharded minibatch over tcp", true, "tcp", 2, 1, "", ""},
		{"replicated minibatch over tcp", true, "tcp", 0, 1, "", "-shards >1"},
		{"minibatch save", true, "inproc", 0, 1, "m.dgnp", "-minibatch"},
		{"sharded minibatch save", true, "inproc", 4, 1, "m.dgnp", "-minibatch"},
		{"distributed save", false, "inproc", 0, 2, "m.dgnp", "-sockets 2"},
		{"tcp distributed save", false, "tcp", 0, 4, "m.dgnp", "-sockets 4"},
	}
	for _, c := range cases {
		err := checkFlags(c.minibatch, c.transport, c.shards, c.sockets, c.save)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.wantErr)
		}
	}
}
