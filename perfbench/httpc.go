package main

import (
	"bytes"
	"fmt"
	"time"

	"indiss/internal/netapi"
)

// httpClient is a minimal keep-alive HTTP/1.1 GET client over one
// netapi stream: one request in flight, Content-Length framing, reused
// buffers. The query plane speaks exactly this subset.
type httpClient struct {
	stack netapi.Stack
	addr  netapi.Addr
	conn  netapi.Stream
	req   []byte
	buf   []byte
	tmp   []byte
}

func newHTTPClient(stack netapi.Stack, addr netapi.Addr) *httpClient {
	return &httpClient{stack: stack, addr: addr, buf: make([]byte, 0, 64<<10), tmp: make([]byte, 16<<10)}
}

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// get sends one GET and returns the status code and the body, which
// aliases the client's buffer until the next call.
func (c *httpClient) get(target string, timeout time.Duration) (int, []byte, error) {
	if c.conn == nil {
		conn, err := c.stack.DialTCP(c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn = conn
	}
	c.conn.SetReadTimeout(timeout)
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, target...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: gw\r\n\r\n"...)
	if _, err := c.conn.Write(c.req); err != nil {
		c.close()
		return 0, nil, err
	}
	c.buf = c.buf[:0]
	headEnd := -1
	for headEnd < 0 {
		n, err := c.conn.Read(c.tmp)
		c.buf = append(c.buf, c.tmp[:n]...)
		headEnd = bytes.Index(c.buf, []byte("\r\n\r\n"))
		if headEnd < 0 && err != nil {
			c.close()
			return 0, nil, err
		}
	}
	code, clen, err := parseHead(c.buf[:headEnd])
	if err != nil {
		c.close()
		return 0, nil, err
	}
	bodyStart := headEnd + 4
	for len(c.buf)-bodyStart < clen {
		n, err := c.conn.Read(c.tmp)
		c.buf = append(c.buf, c.tmp[:n]...)
		if err != nil && len(c.buf)-bodyStart < clen {
			c.close()
			return 0, nil, err
		}
	}
	return code, c.buf[bodyStart : bodyStart+clen], nil
}

// parseHead extracts the status code and Content-Length.
func parseHead(head []byte) (code, clen int, err error) {
	if !bytes.HasPrefix(head, []byte("HTTP/1.1 ")) || len(head) < 12 {
		return 0, 0, fmt.Errorf("bad status line %q", head)
	}
	for _, c := range head[9:12] {
		if c < '0' || c > '9' {
			return 0, 0, fmt.Errorf("bad status %q", head[9:12])
		}
		code = code*10 + int(c-'0')
	}
	marker := []byte("\r\nContent-Length: ")
	i := bytes.Index(head, marker)
	if i < 0 {
		return 0, 0, fmt.Errorf("no Content-Length in %q", head)
	}
	for _, c := range head[i+len(marker):] {
		if c == '\r' {
			break
		}
		if c < '0' || c > '9' {
			return 0, 0, fmt.Errorf("bad Content-Length")
		}
		clen = clen*10 + int(c-'0')
	}
	return code, clen, nil
}
