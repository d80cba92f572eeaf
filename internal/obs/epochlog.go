package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// KV is one field of an epoch-log record. Supported value types: the
// integer kinds, float64, bool, string and time.Duration (encoded as
// fractional milliseconds under key suffix convention "<k>_ms" chosen
// by the caller).
type KV struct {
	K string
	V any
}

// EpochLogger writes one JSON object per line: the structured epoch
// log. Each record carries the component, the epoch and caller-chosen
// fields, e.g.
//
//	{"component":"monitor","epoch":3,"id":0,"summaries":2,"pending":117,"collect_ms":1.84}
//
// A nil *EpochLogger is valid and discards everything, so callers can
// thread an optional logger without nil checks. Log is safe for
// concurrent use; records are written atomically per line.
type EpochLogger struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// NewEpochLogger wraps w. A nil writer yields a discarding logger.
func NewEpochLogger(w io.Writer) *EpochLogger {
	if w == nil {
		return nil
	}
	return &EpochLogger{w: w}
}

// Log emits one record. No-op on a nil logger.
func (l *EpochLogger) Log(component string, epoch uint64, kvs ...KV) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, `{"component":`...)
	b = strconv.AppendQuote(b, component)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	for _, kv := range kvs {
		b = append(b, ',')
		b = strconv.AppendQuote(b, kv.K)
		b = append(b, ':')
		b = appendValue(b, kv.V)
	}
	b = append(b, '}', '\n')
	l.buf = b
	l.w.Write(b)
}

func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(b, x)
	case string:
		return strconv.AppendQuote(b, x)
	case time.Duration:
		// Durations log as fractional milliseconds.
		return strconv.AppendFloat(b, float64(x)/float64(time.Millisecond), 'g', -1, 64)
	default:
		return strconv.AppendQuote(b, fmt.Sprint(x)) //jaalvet:ignore hotalloc — fallback for non-primitive values; every field the epoch log emits today hits a typed case above
	}
}
