// Command boxer is the dead-code gate fixture's program.
package main

import (
	"fmt"
	"net/http"

	"exportgate/internal/box"
)

func main() {
	h := http.Header{}
	h.Set("Label", "y")
	b := box.New("x")
	b.Label = h.Get("Label")
	fmt.Println(b.N())
}
