//go:build linux

package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// proxy is a loopback TCP forwarder that counts the bytes crossing it in
// both directions. Traced svc_dist runs make the workers join through it,
// so the wire cost of leasing, results and checkpoint shipping is measured
// from outside both programs.
type proxy struct {
	ln     net.Listener
	target string
	n      atomic.Int64
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func startProxy(target string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) bytes() int64 { return p.n.Load() }

func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(in, out)
		go p.pipe(out, in)
	}
}

// pipe copies one direction, counting as it goes (the workers' keep-alive
// connections outlive the measurement), and closes both ends when it
// drains, which unblocks the opposite copy.
func (p *proxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(counted{dst, &p.n}, src)
	dst.Close()
	src.Close()
}

type counted struct {
	w io.Writer
	n *atomic.Int64
}

func (c counted) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// close stops accepting, drops every connection and waits for the copiers.
func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
