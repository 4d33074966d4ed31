package amppot

import (
	"errors"
	"net"
	"net/netip"
	"time"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// Serve answers requests for one protocol on a real socket until the
// connection is closed. The victim address is the datagram's source
// address — on the open Internet that address is spoofed by the attacker,
// which is exactly what AmpPot logs. Each Serve goroutine reads into and
// builds replies into its own buffers, reused for every datagram.
func (h *Honeypot) Serve(conn net.PacketConn, vec attack.Vector) error {
	buf := make([]byte, 65536)
	out := make([]byte, 0, maxUDPPayload)
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		victim, ok := addrToIPv4(addr)
		if !ok {
			continue
		}
		resp, reply := h.HandleRequest(out, time.Now().Unix(), victim, vec, buf[:n])
		if reply && len(resp) > 0 {
			// Best effort; a failed reply must not stop the honeypot.
			_, _ = conn.WriteTo(resp, addr)
		}
	}
}

func addrToIPv4(addr net.Addr) (netx.Addr, bool) {
	udp, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, false
	}
	nip, ok := netip.AddrFromSlice(udp.IP)
	if !ok {
		return 0, false
	}
	return netx.AddrFromNetip(nip.Unmap())
}
