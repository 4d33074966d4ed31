package federation

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"doscope/internal/attack"
)

// Server exposes one site's attack store to federation clients. Each
// accepted connection is a sequential request/response stream: the
// client ships a compiled attack.Plan, the server executes it against
// the store and replies with either an index partial (counting
// terminals) or a DOSEVT02 segment of the matching events (fetch).
//
// A server fronts a live store — one still absorbing ingest, e.g. the
// cmd/amppot flush pipeline — with no locking at all: attack.Store
// reads are lock-free against the store's published view, so every
// handler sees a consistent whole-mutation prefix of the capture,
// concurrent handlers never serialize against each other, and serving
// never blocks (or is blocked by) the writer. Counting plans answer
// from the incrementally maintained indexes plus pending-tail scans
// without forcing a seal, so serving never re-sorts a capture
// mid-ingest.
type Server struct {
	store *attack.Store

	mu     sync.Mutex // guards conns/closed, NOT the store
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a store for serving. The store needs no external
// synchronization — its query paths are safe against a concurrent
// writer — so a server can front the same live store the ingest
// pipeline is appending to.
func NewServer(st *attack.Store) *Server {
	return &Server{store: st, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener closes, handling each on
// its own goroutine; handlers run concurrently. It returns nil when the
// listener is closed. Transient Accept failures — EMFILE-style resource
// exhaustion, aborted handshakes, anything the listener reports as a
// temporary net.Error — are retried with capped exponential backoff
// (5ms doubling to 1s, the net/http.Server discipline) instead of
// killing the accept loop and silently taking the site offline.
func (s *Server) Serve(l net.Listener) error {
	var tempDelay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			//lint:ignore SA1019 Temporary is how listeners still signal
			// EMFILE/ECONNABORTED-style transience; net/http does the same.
			if errors.As(err, &ne) && ne.Temporary() { //nolint:staticcheck
				if tempDelay == 0 {
					tempDelay = 5 * time.Millisecond
				} else {
					tempDelay *= 2
				}
				if tempDelay > time.Second {
					tempDelay = time.Second
				}
				time.Sleep(tempDelay)
				continue
			}
			return err
		}
		tempDelay = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Shutdown stops serving: it closes every active connection (unblocking
// handlers parked in a read) and waits for all in-flight handlers to
// return. Close the listener first so no new connections arrive, then
// call Shutdown before any final mutation or capture write whose
// output must not be observable mid-flight — the cmd/amppot shutdown
// sequence.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handle serves one connection's request frames until the peer closes
// or a frame fails to parse (after a best-effort error frame).
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		typ, payload, err := readFrame(br, maxReqPayload)
		if err != nil {
			// io.EOF: the peer is done. Anything else: tell it why
			// before hanging up; the stream cannot be resynchronized.
			if !errors.Is(err, io.EOF) {
				_ = writeFrame(conn, typeRespError, []byte(err.Error()))
			}
			return
		}
		respType, resp, err := s.execute(typ, payload)
		if err != nil {
			_ = writeFrame(conn, typeRespError, []byte(err.Error()))
			return
		}
		if err := writeFrame(conn, respType, resp); err != nil {
			return
		}
	}
}

// execute runs one decoded request against the store — a lock-free
// read against its published view — and returns the response frame.
func (s *Server) execute(typ byte, payload []byte) (respType byte, resp []byte, err error) {
	if typ == typeReqVersion {
		// Plan-less request: the store's mutation counter, which clients
		// (e.g. the HTTP front end's response cache) compare across
		// requests to detect ingest instead of re-executing plans.
		if len(payload) != 0 {
			return 0, nil, fmt.Errorf("federation: version request carries %d payload bytes, want 0", len(payload))
		}
		resp = binary.LittleEndian.AppendUint64(nil, s.store.Version())
		return typeRespVersion, resp, nil
	}
	p, err := attack.DecodePlan(payload)
	if err != nil {
		return 0, nil, err
	}
	if t, ok := countTerms[typ]; ok {
		resp = make([]byte, 0, 8*t.cells)
		for _, n := range t.query(p.Query(s.store)) {
			resp = binary.LittleEndian.AppendUint64(resp, uint64(n))
		}
		return t.resp, resp, nil
	}
	if typ != typeReqFetch {
		return 0, nil, fmt.Errorf("federation: unknown request type %#x", typ)
	}
	// Iteration terminals are the one case events cross the wire: the
	// matching subset leaves as a DOSEVT02 segment. An unfiltered plan
	// ships the store verbatim, skipping the copy.
	st := s.store
	if !p.All() {
		st = p.Query(s.store).Collect()
	}
	var buf bytes.Buffer
	if err := st.WriteSegment(&buf); err != nil {
		return 0, nil, err
	}
	if buf.Len() > maxRespPayload {
		return 0, nil, fmt.Errorf("federation: segment of %d bytes exceeds the %d-byte frame limit; narrow the plan", buf.Len(), maxRespPayload)
	}
	return typeRespSegment, buf.Bytes(), nil
}

// Listen opens a federation listener on addr: a unix socket when addr
// contains a path separator (any stale socket file is removed first),
// TCP otherwise.
func Listen(addr string) (net.Listener, error) {
	network := netKind(addr)
	if network == "unix" {
		_ = os.Remove(addr)
	}
	return net.Listen(network, addr)
}

// netKind maps an address to its network: paths are unix sockets,
// host:port pairs are TCP.
func netKind(addr string) string {
	if strings.ContainsRune(addr, '/') {
		return "unix"
	}
	return "tcp"
}
