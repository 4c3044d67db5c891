package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// telemetry.go is the training-telemetry leg: a JSONL event stream
// distgnn-train writes at rank 0 — one object per line, each stamped with
// an event name and a wall-clock timestamp. Loss/accuracy values carry
// their float64 bit patterns alongside the decimal rendering so the
// stream can participate in bit-identity conformance checks.

// EventLog writes JSONL telemetry events. Nil-safe: a nil log drops every
// event, so emission sites need no guards.
type EventLog struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewEventLog wraps w (typically a file). A nil writer yields a nil log.
func NewEventLog(w io.Writer) *EventLog {
	if w == nil {
		return nil
	}
	return &EventLog{enc: json.NewEncoder(w)}
}

// Emit writes one event line: {"event": name, "ts_unix_ns": ..., fields}.
// fields is copied shallowly; callers keep ownership.
func (l *EventLog) Emit(name string, fields map[string]any) {
	if l == nil {
		return
	}
	obj := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		obj[k] = v
	}
	obj["event"] = name
	obj["ts_unix_ns"] = time.Now().UnixNano()
	l.mu.Lock()
	l.enc.Encode(obj)
	l.mu.Unlock()
}

// F64Bits renders a float64's exact bit pattern the way telemetry events
// carry loss/accuracy for bit-identity comparison across ranks and runs.
func F64Bits(v float64) string {
	return "0x" + hex16(math.Float64bits(v))
}

func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}
