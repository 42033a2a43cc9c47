package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Conn is one keep-alive HTTP connection to the daemon's API.
type Conn struct {
	base   string
	client *http.Client
	tr     *http.Transport
}

func newConn(base string) *Conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &Conn{base: base, tr: tr, client: &http.Client{Transport: tr}}
}

// Close releases the connection.
func (c *Conn) Close() { c.tr.CloseIdleConnections() }

// Timing is when a request was sent and when its response was fully
// read.
type Timing struct {
	Sent, Done time.Time
}

// MS is the request's service time in milliseconds.
func (t Timing) MS() float64 { return ms(t.Done.Sub(t.Sent)) }

// post sends one request and reads the whole response.
func (c *Conn) post(ctx context.Context, path, contentType string, body []byte) ([]byte, int, Timing, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, Timing{}, err
	}
	req.Header.Set("Content-Type", contentType)
	var t Timing
	t.Sent = time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, t, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.Done = time.Now()
	return data, resp.StatusCode, t, err
}

// Append posts one append body; flush asks the daemon to flush after
// it. It returns the acknowledged point count.
func (c *Conn) Append(ctx context.Context, body []byte, flush bool) (int64, Timing, error) {
	path := "/api/v1/append"
	if flush {
		path += "?flush=1"
	}
	data, status, t, err := c.post(ctx, path, "application/json", body)
	if err != nil {
		return 0, t, err
	}
	return parseAppend(status, data, t)
}

func parseAppend(status int, data []byte, t Timing) (int64, Timing, error) {
	if status != http.StatusOK {
		return 0, t, fmt.Errorf("append: HTTP %d: %s", status, bytes.TrimSpace(data))
	}
	var ack struct {
		Appended int64 `json:"appended"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return 0, t, fmt.Errorf("append: bad response %q: %w", data, err)
	}
	return ack.Appended, t, nil
}

// Answer is a decoded /api/v1/query response.
type Answer struct {
	Columns []string
	Rows    [][]any // json.Number or string cells
}

func parseAnswer(status int, data []byte) (*Answer, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("query: HTTP %d: %s", status, bytes.TrimSpace(data))
	}
	var body struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
		Error   string   `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&body); err != nil {
		return nil, fmt.Errorf("query: bad response: %w", err)
	}
	if body.Error != "" {
		return nil, fmt.Errorf("query: in-band error: %s", body.Error)
	}
	return &Answer{Columns: body.Columns, Rows: body.Rows}, nil
}

func (a *Answer) number(r, c int) (string, error) {
	if r >= len(a.Rows) || c >= len(a.Rows[r]) {
		return "", fmt.Errorf("answer has no cell (%d, %d)", r, c)
	}
	n, ok := a.Rows[r][c].(json.Number)
	if !ok {
		return "", fmt.Errorf("cell (%d, %d) is %v, not a number", r, c, a.Rows[r][c])
	}
	return string(n), nil
}

// Float returns cell (r, c) as a float64.
func (a *Answer) Float(r, c int) (float64, error) {
	s, err := a.number(r, c)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(s, 64)
}

// Int returns cell (r, c) as an int64.
func (a *Answer) Int(r, c int) (int64, error) {
	s, err := a.number(r, c)
	if err != nil {
		return 0, err
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	// Aggregate counts render as JSON floats (1.660928e+06).
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f != math.Trunc(f) || math.Abs(f) > 1<<53 {
		return 0, fmt.Errorf("cell (%d, %d) = %s is not an integer", r, c, s)
	}
	return int64(f), nil
}

// String returns cell (r, c) as a string.
func (a *Answer) String(r, c int) (string, error) {
	if r >= len(a.Rows) || c >= len(a.Rows[r]) {
		return "", fmt.Errorf("answer has no cell (%d, %d)", r, c)
	}
	s, ok := a.Rows[r][c].(string)
	if !ok {
		return "", fmt.Errorf("cell (%d, %d) is %v, not a string", r, c, a.Rows[r][c])
	}
	return s, nil
}
