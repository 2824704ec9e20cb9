// Package wire stubs the codec entry point the wireerr analyzer
// protects, so the driver tests can trigger it in a tiny module.
package wire

import "io"

// WriteMessage writes one message.
func WriteMessage(w io.Writer, b []byte) error { return nil }
