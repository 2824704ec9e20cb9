package routegen

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/mrt"
)

// WriteMRT serializes d as an MRT TABLE_DUMP_V2 archive, the format of
// the RouteViews table dumps the paper measures: one PEER_INDEX_TABLE
// naming a single peer, then one RIB_IPV4_UNICAST record per entry in
// entry order, every record stamped with d.Date. A Dump does not record
// which peer an entry came from, so that peer is anonymous (zero BGP ID,
// address and AS). MOAS lists travel in the COMMUNITY attribute.
func WriteMRT(w io.Writer, d *Dump) error {
	bw := bufio.NewWriter(w)
	mw := mrt.NewWriter(bw)
	if err := mw.WritePeerIndex(d.Date, 0, "", []mrt.Peer{{}}); err != nil {
		return fmt.Errorf("write MRT dump: %w", err)
	}
	var rib [1]mrt.RIBEntry
	originated := uint32(d.Date.Unix())
	for i, e := range d.Entries {
		rib[0] = mrt.RIBEntry{Originated: originated, Path: e.Path, Communities: e.Communities}
		if err := mw.WriteRIB(d.Date, uint32(i), e.Prefix, rib[:]); err != nil {
			return fmt.Errorf("write MRT dump entry %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write MRT dump: %w", err)
	}
	return nil
}
