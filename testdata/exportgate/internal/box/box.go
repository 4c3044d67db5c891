// Package box is the dead-code gate's fixture: it declares one method and
// one field that no program reads, each beside a name the program does
// use elsewhere.
package box

// Box holds a count and a label.
type Box struct {
	// Label is written by New and by cmd/boxer but never read.
	Label string
	n     int
}

// New returns a labelled box.
func New(label string) *Box { return &Box{Label: label} }

// Set stores n. Only box_test.go calls it; cmd/boxer calls http.Header's
// Set, which shares the name.
func (b *Box) Set(n int) { b.n = n }

// N returns the stored count.
func (b *Box) N() int { return b.n }
