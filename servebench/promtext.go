package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSeries is one parsed exposition line: metric name, labels, value.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnapshot is one scrape of a Prometheus text exposition, keyed by
// the series text before the value (name plus label set).
type promSnapshot map[string]promSeries

// parseProm reads the text exposition format: comment lines are
// skipped, every other line is `name{k="v",...} value`.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSeries{name: key, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			s.name = key[:i]
			s.labels, err = parseLabels(strings.TrimSuffix(key[i+1:], "}"))
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
		}
		snap[key] = s
	}
	return snap, sc.Err()
}

// parseLabels splits `k="v",k2="v2"`, honouring \" and \\ escapes.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label set %q", s)
		}
		k := s[:eq]
		var v strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
			}
			v.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[k] = v.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return out, nil
}

// scrapeProm fetches and parses url (the router's /metrics rollup).
func scrapeProm(c *http.Client, url string) (promSnapshot, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// delta returns after − before for every series in after (counters
// that first appear in after count from zero).
func (after promSnapshot) delta(before promSnapshot) promSnapshot {
	out := promSnapshot{}
	for k, s := range after {
		s.value -= before[k].value
		out[k] = s
	}
	return out
}

// sum adds every series of metric name whose labels include match.
func (p promSnapshot) sum(name string, match map[string]string) float64 {
	var total float64
	for _, s := range p {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}
