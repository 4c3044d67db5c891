package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins which flag combinations distgnn-train refuses before
// doing any work: -transport names one of the two fabrics, and -save only
// writes a single-socket full-batch checkpoint, so asking for it beside
// -minibatch or -sockets >1 is an error rather than a run that ends with no
// file. Mini-batch runs over either fabric.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name      string
		minibatch bool
		transport string
		sockets   int
		save      string
		wantErr   string // "" = accepted
	}{
		{"single-socket save", false, "inproc", 1, "m.dgnp", ""},
		{"distributed no save", false, "tcp", 4, "", ""},
		{"minibatch no save", true, "inproc", 2, "", ""},
		{"minibatch over tcp", true, "tcp", 2, "", ""},
		{"unknown transport", false, "udp", 2, "", "-transport"},
		{"minibatch save", true, "inproc", 1, "m.dgnp", "-minibatch"},
		{"sharded minibatch save", true, "inproc", 4, "m.dgnp", "-minibatch"},
		{"distributed save", false, "inproc", 2, "m.dgnp", "-sockets 2"},
		{"tcp distributed save", false, "tcp", 4, "m.dgnp", "-sockets 4"},
	}
	for _, c := range cases {
		err := checkFlags(c.minibatch, c.transport, c.sockets, c.save)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.wantErr)
		}
	}
}
