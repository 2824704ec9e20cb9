// Package bad reads a guarded field without its lock and drops a wire
// codec error, giving the driver tests one guaranteed lockcheck finding
// and one wireerr finding.
package bad

import (
	"io"
	"sync"

	"badmod/internal/wire"
)

type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *Counter) Get() int { return c.n }

func Send(w io.Writer, b []byte) {
	wire.WriteMessage(w, b)
}
