package units

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"indiss/internal/core"
	"indiss/internal/events"
	"indiss/internal/jini"
	"indiss/internal/netapi"
)

// JiniUnitConfig tunes the Jini unit.
type JiniUnitConfig struct {
	// QueryTimeout bounds native Jini follow-up exchanges.
	QueryTimeout time.Duration
	// RegistrarPort is the TCP port of the bridge registrar's unicast
	// discovery (default 4161, clear of a native lookup service's
	// 4160).
	RegistrarPort int
	// AnnounceInterval spaces the bridge registrar's announcements.
	AnnounceInterval time.Duration
	// Groups the unit serves.
	Groups []string
	// SyncInterval spaces the unit's view↔registrar reconciliation: the
	// registrar absorbs foreign records from the view (including ones a
	// federation peer delivered, which never ride the local bus), and
	// any known native lookup service is polled so its items reach the
	// view passively — Jini items are never multicast, so without the
	// pull a Jini service is invisible until someone asks. Zero uses
	// 500ms; negative disables the loop.
	SyncInterval time.Duration
	// CacheTTL bounds how long an absorbed native Jini item stays in
	// the view without re-confirmation by a pull or a lookup — Jini has
	// no advertised lifetime of its own, so this is the staleness bound
	// a dead registrar's items carry. Default 30 minutes; deployments
	// federating volatile fleets lower it.
	CacheTTL time.Duration
}

// JiniUnit is the INDISS unit for Jini. Jini's service lookups are
// unicast exchanges with a lookup service, so the bridge cannot intercept
// them the way it intercepts multicast searches; instead the unit *is* a
// lookup service: it answers multicast discovery requests like any
// registrar, and serves foreign services (synced from the view and from
// response streams) to Jini clients that look them up.
type JiniUnit struct {
	*base
	cfg JiniUnitConfig

	registrar *jini.LookupService
	client    *jini.Client

	idMu sync.Mutex
	ids  map[string]jini.ServiceID // origin|url → registered bridge item

	nativeMu sync.Mutex
	// natives tracks every non-self lookup service heard announcing, by
	// "host:port" — a production segment runs more than one registrar,
	// and each must be polled or its services stay invisible.
	natives map[string]jini.Locator
	// pulled maps each registrar to the URLs its last successful pull
	// mirrored, so vanished items retract per registrar.
	pulled map[string]map[string]struct{}

	stop chan struct{}
}

// interface compliance
var _ core.Unit = (*JiniUnit)(nil)

// NewJiniUnit builds an unstarted Jini unit.
func NewJiniUnit(cfg JiniUnitConfig) *JiniUnit {
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = defaultQueryTimeout
	}
	if cfg.RegistrarPort == 0 {
		cfg.RegistrarPort = 4161
	}
	if cfg.AnnounceInterval <= 0 {
		cfg.AnnounceInterval = 500 * time.Millisecond
	}
	if cfg.CacheTTL <= 0 {
		cfg.CacheTTL = 30 * time.Minute
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = 500 * time.Millisecond
	}
	u := &JiniUnit{
		base: newBase("jini-unit", core.SDPJini),
		cfg:  cfg,
		ids:  make(map[string]jini.ServiceID),
		stop: make(chan struct{}),
	}
	u.onRequest = u.queryNative
	u.onOther = u.composeOther
	return u
}

// Start implements core.Unit.
func (u *JiniUnit) Start(ctx *core.UnitContext) error {
	// The registrar announces the bridge marker group alongside its
	// real groups: invisible to native clients (group matching is by
	// intersection, empty-means-any), but enough for a peer gateway's
	// unit to know this is not native Jini infrastructure.
	real := u.cfg.Groups
	if len(real) == 0 {
		real = []string{"public"} // preserve the registrar's default group
	}
	groups := append(append([]string(nil), real...), jiniBridgeGroup)
	registrar, err := jini.NewLookupService(ctx.Stack, jini.LookupConfig{
		Groups:           groups,
		UnicastPort:      u.cfg.RegistrarPort,
		AnnounceInterval: u.cfg.AnnounceInterval,
	})
	if err != nil {
		return fmt.Errorf("jini unit: %w", err)
	}
	// The registrar emits announcements and answers from UDP 4160 on
	// this host; mark it so the monitor ignores the bridge's own
	// traffic.
	ctx.Self.Mark(netapi.Addr{IP: ctx.Stack.IP(), Port: jini.Port})
	u.registrar = registrar
	u.client = jini.NewClient(ctx.Stack, jini.ClientConfig{Groups: u.cfg.Groups})
	u.attach(ctx)
	ctx.Bus.Subscribe(u.name, events.ListenerFunc(u.OnEvents))
	if u.cfg.SyncInterval > 0 {
		u.spawn(u.syncLoop)
	}
	return nil
}

// Stop implements core.Unit.
func (u *JiniUnit) Stop() {
	if !u.markStopped() {
		return
	}
	close(u.stop)
	ctx := u.context()
	if ctx != nil {
		ctx.Bus.Unsubscribe(u.name)
	}
	if u.registrar != nil {
		u.registrar.Close()
	}
	u.wait()
}

// Registrar exposes the bridge registrar's locator, mainly for tests and
// diagnostics.
func (u *JiniUnit) Registrar() jini.Locator {
	return u.registrar.Locator()
}

// HandleNative implements core.Unit: raw Jini discovery packets from the
// monitor.
func (u *JiniUnit) HandleNative(det core.Detection) {
	ctx := u.context()
	if ctx == nil {
		return
	}
	kind, r, err := jini.OpenPacket(det.Data)
	if err != nil {
		return
	}
	ctx.Profile.Delay()
	switch kind {
	case jini.KindRequestPacket:
		u.parseDiscoveryRequest(det)
		_ = r
	case jini.KindAnnouncePacket:
		u.parseAnnouncement(r, det)
	}
}

// parseDiscoveryRequest reacts to a Jini client searching for lookup
// services: the bridge registrar answers natively on its own; here the
// unit additionally publishes a browse request so peer units pre-populate
// the registrar with their services before the client's lookup lands.
func (u *JiniUnit) parseDiscoveryRequest(det core.Detection) {
	reqID := "jini-" + det.Src.String()
	u.addPending(&pending{
		reqID:  reqID,
		src:    det.Src,
		kind:   "",
		native: map[string]string{},
	})
	u.publish(requestStream(core.SDPJini, reqID, det.Src, true, "",
		events.E(events.JiniGroups, joinComma(u.cfg.Groups)),
	))
}

// parseAnnouncement records native lookup services for later queries.
// Bridge registrars — ours or a peer gateway's — announce the marker
// group and are never adopted as native infrastructure.
func (u *JiniUnit) parseAnnouncement(r *jini.PacketReader, det core.Detection) {
	ann, groups, err := jini.ParseAnnouncementPacket(r)
	if err != nil {
		return
	}
	if isBridgeRegistrar(groups) {
		return
	}
	own := u.registrar.Locator()
	if ann.Host == own.Host && ann.Port == own.Port {
		return
	}
	u.nativeMu.Lock()
	u.adoptLocatorLocked(ann)
	u.nativeMu.Unlock()
	_ = det
}

// maxNativeLookups bounds how many distinct registrars the unit tracks —
// a sanity cap, far above any real segment's registrar count.
const maxNativeLookups = 64

func locatorKey(loc jini.Locator) string {
	return loc.Host + ":" + strconv.Itoa(loc.Port)
}

// adoptLocatorLocked records a native registrar. Requires u.nativeMu.
func (u *JiniUnit) adoptLocatorLocked(loc jini.Locator) {
	if u.natives == nil {
		u.natives = make(map[string]jini.Locator)
	}
	if len(u.natives) >= maxNativeLookups {
		if _, known := u.natives[locatorKey(loc)]; !known {
			return
		}
	}
	u.natives[locatorKey(loc)] = loc
}

// dropLocatorLocked forgets a registrar (its pull failed: it is gone or
// unreachable) and orphans its mirrored URLs — they fade by CacheTTL,
// the TTL-bounded staleness a dead registrar's services carry. The next
// announcement re-adopts it. Requires u.nativeMu.
func (u *JiniUnit) dropLocatorLocked(key string) {
	delete(u.natives, key)
	delete(u.pulled, key)
}

// composeOther is the non-request composer half, dispatched by
// base.OnEvents (which owns the envelope release protocol).
func (u *JiniUnit) composeOther(s events.Stream) {
	switch {
	case s.Has(events.ServiceResponse), s.Has(events.ServiceAlive):
		// Any foreign service knowledge becomes a bridge registrar
		// entry, so Jini clients can look it up natively.
		u.registerForeign(recordFromStream(originOf(s), s))
	case s.Has(events.ServiceByeBye):
		u.unregisterForeign(originOf(s), s.FirstData(events.ResServURL))
	}
}

// queryNative looks up matching services in the native Jini world (a
// non-bridge lookup service) and answers with response streams.
func (u *JiniUnit) queryNative(s events.Stream) {
	ctx := u.context()
	reqID := s.FirstData(events.ReqID)
	kind := s.FirstData(events.ServiceType)

	loc, ok := u.findNativeLookup()
	if !ok {
		return // no native Jini infrastructure present
	}
	ctx.Profile.Delay()
	items, err := u.client.Lookup(loc, jini.ServiceTemplate{}, u.cfg.QueryTimeout)
	if err != nil {
		return
	}
	for _, item := range items {
		if isBridgeItem(item) {
			continue // a bridge-created mirror, not native knowledge
		}
		itemKind := kindFromJiniType(item.Type)
		if kind != "" && itemKind != baseKind(kind) {
			continue
		}
		rec := core.ServiceRecord{
			Origin:  core.SDPJini,
			Kind:    itemKind,
			URL:     item.Endpoint,
			Attrs:   entryAttrs(item.Attrs),
			Expires: time.Now().Add(u.cfg.CacheTTL),
		}
		ctx.View.Put(rec)
		u.publish(responseStream(core.SDPJini, reqID, rec,
			events.E(events.JiniServiceID, item.ID.String()),
		))
	}
}

// isBridgeItem reports whether a looked-up item was created by an INDISS
// bridge registrar (they carry the origin attribute).
func isBridgeItem(item jini.ServiceItem) bool {
	for _, e := range item.Attrs {
		if e.Name == jiniOriginAttr && e.Value != "" {
			return true
		}
	}
	return false
}

// findNativeLookup returns a known native lookup locator, discovering one
// if necessary (excluding the bridge's own registrar).
func (u *JiniUnit) findNativeLookup() (jini.Locator, bool) {
	u.nativeMu.Lock()
	for _, loc := range u.natives {
		u.nativeMu.Unlock()
		return loc, true
	}
	u.nativeMu.Unlock()
	// One discovery request; answers from the bridge's own registrar and
	// from peer gateways' bridge registrars are not native infrastructure,
	// so they are skipped while the same socket listens on.
	own := u.registrar.Locator()
	found, err := u.client.DiscoverLookupWhere(u.cfg.QueryTimeout, func(loc jini.Locator, groups []string) bool {
		return loc != own && !isBridgeRegistrar(groups)
	})
	if err != nil {
		return jini.Locator{}, false
	}
	u.nativeMu.Lock()
	u.adoptLocatorLocked(found)
	u.nativeMu.Unlock()
	return found, true
}

// isBridgeRegistrar reports whether announced groups mark an INDISS
// bridge registrar.
func isBridgeRegistrar(groups []string) bool {
	for _, g := range groups {
		if g == jiniBridgeGroup {
			return true
		}
	}
	return false
}

func baseKind(kind string) string {
	for i := 0; i < len(kind); i++ {
		if kind[i] == ':' {
			return kind[:i]
		}
	}
	return kind
}

// registerForeign mirrors a foreign service into the bridge registrar.
// Locally heard Jini services are excluded — their own lookup service
// serves them — but a *remote* Jini record is as foreign as any other:
// no native infrastructure on this segment knows it.
func (u *JiniUnit) registerForeign(rec core.ServiceRecord) {
	if (rec.Origin == core.SDPJini && !rec.Remote) || rec.URL == "" {
		return
	}
	attrs := []jini.Entry{
		{Name: "kind", Value: rec.Kind},
		{Name: "origin", Value: string(rec.Origin)},
	}
	for name, value := range rec.Attrs {
		attrs = append(attrs, jini.Entry{Name: name, Value: value})
	}
	item := jini.ServiceItem{
		Type:     jiniTypeFromKind(rec.Kind),
		Endpoint: rec.URL,
		Attrs:    attrs,
	}
	key := string(rec.Origin) + "|" + rec.URL
	u.idMu.Lock()
	if id, known := u.ids[key]; known {
		item.ID = id
	}
	u.idMu.Unlock()

	id, err := u.registrar.RegisterLocal(item)
	if err != nil {
		return
	}
	u.idMu.Lock()
	u.ids[key] = id
	u.idMu.Unlock()
}

func (u *JiniUnit) unregisterForeign(origin core.SDP, url string) {
	key := string(origin) + "|" + url
	u.idMu.Lock()
	id, ok := u.ids[key]
	if ok {
		delete(u.ids, key)
	}
	u.idMu.Unlock()
	if ok {
		u.registrar.Unregister(id)
	}
}

// syncLoop reconciles the registrar with the shared view both ways.
//
// Push: every foreign record in the view becomes a registrar item, so a
// Jini client can look up a service that arrived over the federation —
// remote records never ride the local bus, so the stream-driven
// registerForeign alone would miss them.
//
// Pull: a known native lookup service is polled and its items fed into
// the view as Jini records. Jini has no multicast item advertisement, so
// without the pull a native Jini service stays invisible to peers (and
// to federation peers on other segments) until a request happens to ask.
func (u *JiniUnit) syncLoop() {
	ticker := time.NewTicker(u.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-u.stop:
			return
		case <-ticker.C:
			ctx := u.context()
			if ctx == nil {
				continue
			}
			now := time.Now()
			for _, rec := range ctx.View.Find("", now) {
				// registerForeign filters out what must not be
				// mirrored (local Jini records: the native lookup
				// service already serves them).
				u.registerForeign(rec)
			}
			u.pullNativeItems(ctx)
		}
	}
}

// pullNativeItems mirrors a native lookup service's registrations into
// the view. Only already-known locators are polled — discovery stays
// passive (announcement-driven), as the monitor architecture prescribes.
//
// The pull is also the retraction path: Jini has no multicast byebye, so
// a service deregistered from (or lease-expired at) the lookup service
// would otherwise linger in the view for its full cache lifetime. Each
// successful pull compares against what the previous pull mirrored and
// removes records that vanished from the registrar — withdrawal within
// one sync interval instead of a half-hour of staleness. Only records
// this loop itself created are retracted (u.pulled), so request-driven
// absorptions from other registrars are untouched, and a failed pull
// (registrar down or unreachable — indistinguishable from a partition)
// retracts nothing.
func (u *JiniUnit) pullNativeItems(ctx *core.UnitContext) {
	u.nativeMu.Lock()
	locs := make(map[string]jini.Locator, len(u.natives))
	for key, loc := range u.natives {
		locs[key] = loc
	}
	u.nativeMu.Unlock()
	for key, loc := range locs {
		u.pullOneRegistrar(ctx, key, loc)
	}
}

// pullOneRegistrar polls one registrar and reconciles the view with it.
func (u *JiniUnit) pullOneRegistrar(ctx *core.UnitContext, key string, loc jini.Locator) {
	items, err := u.client.Lookup(loc, jini.ServiceTemplate{}, u.cfg.QueryTimeout)
	if err != nil {
		// Gone or unreachable — indistinguishable from a partition, so
		// retract nothing: its mirrored items fade by CacheTTL, and the
		// next announcement re-adopts the registrar.
		u.nativeMu.Lock()
		u.dropLocatorLocked(key)
		u.nativeMu.Unlock()
		return
	}
	current := make(map[string]struct{}, len(items))
	for _, item := range items {
		if isBridgeItem(item) || item.Endpoint == "" {
			continue
		}
		current[item.Endpoint] = struct{}{}
	}
	u.nativeMu.Lock()
	var gone []string
	for url := range u.pulled[key] {
		if _, still := current[url]; !still {
			gone = append(gone, url)
		}
	}
	if u.pulled == nil {
		u.pulled = make(map[string]map[string]struct{})
	}
	u.pulled[key] = current
	u.nativeMu.Unlock()
	for _, url := range gone {
		if rec, ok := ctx.View.Get(core.SDPJini, url); ok && !rec.Remote {
			if ctx.View.Remove(core.SDPJini, url) {
				u.publish(byeStream(core.SDPJini, rec.Kind, url))
			}
		}
	}
	for _, item := range items {
		if isBridgeItem(item) || item.Endpoint == "" {
			continue
		}
		rec := core.ServiceRecord{
			Origin:  core.SDPJini,
			Kind:    kindFromJiniType(item.Type),
			URL:     item.Endpoint,
			Attrs:   entryAttrs(item.Attrs),
			Expires: time.Now().Add(u.cfg.CacheTTL),
		}
		if existing, ok := ctx.View.Get(core.SDPJini, rec.URL); ok &&
			existing.Expires.After(time.Now().Add(u.cfg.CacheTTL*5/6)) {
			continue // freshly synced; skip the Put/delta churn
		}
		ctx.View.Put(rec)
		u.publish(aliveStream(core.SDPJini, rec))
	}
}

func entryAttrs(entries []jini.Entry) map[string]string {
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		out[e.Name] = e.Value
	}
	return out
}
