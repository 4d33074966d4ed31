package attack

import "strconv"

// ServiceName maps a single targeted port to a service label the way the
// paper's Table 8 does: IANA assignments plus commonly used port numbers.
// Ports without a well-known service are rendered as the bare number
// (e.g. the game-associated UDP ports 27015, 37547, ...).
func ServiceName(v Vector, port uint16) string {
	if v == VectorTCP {
		switch port {
		case 80, 8080:
			return "HTTP"
		case 443:
			return "HTTPS"
		case 3306:
			return "MySQL"
		case 53:
			return "DNS"
		case 1723:
			return "VPN PPTP"
		case 22:
			return "SSH"
		case 25:
			return "SMTP"
		case 21:
			return "FTP"
		case 6667:
			return "IRC"
		case 3389:
			return "RDP"
		case 5900:
			return "VNC"
		case 143:
			return "IMAP"
		case 110:
			return "POP3"
		}
	}
	if v == VectorUDP {
		switch port {
		case 3306:
			return "MySQL"
		case 53:
			return "DNS"
		case 123:
			return "NTP"
		case 138:
			return "NetBIOS"
		case 161:
			return "SNMP"
		case 1900:
			return "SSDP"
		}
	}
	return strconv.Itoa(int(port))
}

// WebPort reports whether the port is Web infrastructure (80/443 plus the
// common 8080 alternate), the class the paper singles out in §4.
func WebPort(port uint16) bool {
	return port == 80 || port == 443 || port == 8080
}

// TargetsWeb reports whether a telescope event potentially targets Web
// infrastructure: a TCP event whose targeted ports include a Web port.
func (e *Event) TargetsWeb() bool {
	if e.Vector != VectorTCP {
		return false
	}
	for _, p := range e.Ports {
		if WebPort(p) {
			return true
		}
	}
	return false
}
