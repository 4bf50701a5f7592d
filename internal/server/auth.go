package server

// Tenancy: bearer-token authentication and per-tenant admission.
//
// A token-protected daemon (tasmd -token-file) maps every request's
// bearer token to a tenant id. Tenants are the serving contract's unit
// of isolation: each gets its own inflight quota carved out of the
// global limit, so one tenant saturating its streams degrades into 503s
// for that tenant while the others keep their full budget. The health
// probe stays unauthenticated — an overloaded or misconfigured daemon
// must still say it is alive.

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strings"

	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// ParseTokenFile reads a tenant table: one "tenant:token" per line,
// blank lines and #-comments ignored. Tokens must be unique (a shared
// token would silently merge two tenants' quotas); tenant ids may
// repeat (one tenant, several tokens — rotation without downtime).
// The returned map is keyed by token.
func ParseTokenFile(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: token file: %w", err)
	}
	defer f.Close()
	tenants := map[string]string{}
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tenant, token, ok := strings.Cut(line, ":")
		tenant, token = strings.TrimSpace(tenant), strings.TrimSpace(token)
		if !ok || tenant == "" || token == "" {
			return nil, fmt.Errorf("server: token file %s:%d: want tenant:token", path, lineNo)
		}
		if prev, dup := tenants[token]; dup {
			return nil, fmt.Errorf("server: token file %s:%d: token already assigned to tenant %q", path, lineNo, prev)
		}
		tenants[token] = tenant
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("server: token file: %w", err)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("server: token file %s holds no tokens", path)
	}
	return tenants, nil
}

// Admit is the api.Gate in front of the route table: authenticate, then
// take the admission slots, each timed as its own span on the request
// trace. A known tenant over its quota is still named, so its 503 is
// counted against it.
func (s *Server) Admit(r *http.Request) (tenant string, release func(), err error) {
	tr := obs.FromContext(r.Context())
	endAuth := tr.StartSpan("auth")
	tenant, err = s.authenticate(r)
	endAuth()
	if err != nil {
		return "", nil, err
	}
	endAdmit := tr.StartSpan("admit")
	release, err = s.admit(tenant)
	endAdmit()
	return tenant, release, err
}

// Observe keeps the per-tenant serving counters ("-" is the anonymous
// tenant of an open daemon, and of requests refused before a tenant
// was known).
func (s *Server) Observe(tenant string, status int, bytes int64) {
	s.requests.With(tenant).Inc()
	s.bytes.With(tenant).Add(bytes)
	rejected := s.rejected.With(tenant) // touch so the series renders alongside requests_total
	if status == http.StatusServiceUnavailable {
		rejected.Inc()
	}
}

// authenticate resolves the request's tenant against the live tenant
// table (loaded once, so a concurrent SetTenants swap cannot tear this
// request's view). With no table the daemon is open and all traffic is
// the anonymous tenant "". With one, a missing or unknown bearer token
// is refused with ErrUnauthorized before any work (or limiter slot) is
// spent on it.
func (s *Server) authenticate(r *http.Request) (string, error) {
	var tenants map[string]string
	if p := s.tenants.Load(); p != nil {
		tenants = *p
	}
	if len(tenants) == 0 {
		return "", nil
	}
	auth := r.Header.Get("Authorization")
	// Auth schemes are case-insensitive (RFC 7235); some proxies
	// normalize to lowercase "bearer".
	const scheme = "bearer "
	if len(auth) < len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) {
		return "", fmt.Errorf("%w: missing bearer token", rpcwire.ErrUnauthorized)
	}
	token := strings.TrimSpace(auth[len(scheme):])
	if token == "" {
		return "", fmt.Errorf("%w: missing bearer token", rpcwire.ErrUnauthorized)
	}
	tenant, known := tenants[token]
	if !known {
		return "", fmt.Errorf("%w: unknown token", rpcwire.ErrUnauthorized)
	}
	return tenant, nil
}

// admit takes an inflight slot for the tenant: first the global bound
// (protecting the process), then the tenant's quota (protecting the
// other tenants). Both rejections are the same typed, retryable
// overloaded error; the caller adds Retry-After. The returned release
// returns both slots.
func (s *Server) admit(tenant string) (release func(), err error) {
	select {
	case s.inflight <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w: %d requests in flight", rpcwire.ErrOverloaded, s.cfg.MaxInflight)
	}
	ch := s.tenantQuota(tenant)
	if ch == nil {
		return func() { <-s.inflight }, nil
	}
	select {
	case ch <- struct{}{}:
	default:
		<-s.inflight
		return nil, fmt.Errorf("%w: tenant %q at %d requests in flight", rpcwire.ErrOverloaded, tenant, cap(ch))
	}
	return func() { <-ch; <-s.inflight }, nil
}

// tenantQuota returns the tenant's admission channel, creating it on
// first use (tenant ids appear at runtime via SetTenants, so quotas
// cannot be pre-built at New). The anonymous tenant of an open daemon
// has no per-tenant quota — the global bound is the only limit, as
// before tenancy existed. Channels are never removed: a token rotation
// must not orphan slots held by in-flight requests of a renamed tenant.
func (s *Server) tenantQuota(tenant string) chan struct{} {
	if tenant == "" {
		return nil
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	ch := s.tenantInflight[tenant]
	if ch == nil {
		ch = make(chan struct{}, s.cfg.TenantMaxInflight)
		s.tenantInflight[tenant] = ch
	}
	return ch
}
