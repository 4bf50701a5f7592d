// Command tasmctl operates a TASM store — a local directory, or a
// remote tasmd daemon when -addr is given: ingest synthetic videos, run
// (simulated) object detection to populate the semantic index, execute
// Scan queries, inspect the catalog and cache, and re-tile SOTs.
//
// Usage:
//
//	tasmctl ingest -dir db -preset visualroad-2k-a
//	tasmctl detect -dir db -video visualroad-2k-a -detector yolo
//	tasmctl query  -dir db "SELECT car FROM visualroad-2k-a WHERE 0 <= t < 60"
//	tasmctl info   -dir db
//	tasmctl stats  -dir db
//	tasmctl retile -dir db -video visualroad-2k-a -sot 0 -labels car,person
//	tasmctl fsck   -dir db
//	tasmctl gc     -dir db
//	tasmctl append    -dir db -video cam0 -preset visualroad-2k-a -create
//	tasmctl subscribe -dir db -video cam0 -from 0
//	tasmctl retention -dir db -video cam0 -max-age-frames 900
//	tasmctl videos -dir db -json
//
//	tasmctl -addr localhost:7878 query "SELECT car FROM visualroad-2k-a"
//	tasmctl query -addr localhost:7878 "..."      # same; flag position is free
//	tasmctl -addr host:7878 -token SECRET -encoding binary query "..."
//
// Every subcommand drives one interface, the api.Backend the daemons
// themselves serve: without -addr it is the in-process store, with
// -addr host:port the Go client against a remote tasmd or tasm-router
// (-token supplies the bearer credential for a locked-down daemon,
// -encoding picks the stream wire framing); typed failures map to
// distinct exit codes either way (see -h). Local mode takes the store's
// flock ownership lease, so pointing tasmctl -dir at a live daemon's
// directory fails fast with "store locked" — -force overrides for
// recovery.
package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/api"
	"github.com/tasm-repro/tasm/internal/detect"
	"github.com/tasm-repro/tasm/internal/rpcwire"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/server"
)

// Exit codes: scripts branch on the failure class without parsing
// error text. The mapping rides the same typed-error taxonomy locally
// and remotely (the client reconstructs the sentinels from the wire).
const (
	exitOK           = 0
	exitFailure      = 1 // unclassified error (I/O, integrity problems, transport)
	exitNotFound     = 2 // video or SOT not found
	exitInvalid      = 3 // invalid input: bad flags/usage, name, range, empty ingest, bad request
	exitConflict     = 4 // already exists, retile conflict, lost race with delete, store locked
	exitDenied       = 5 // unauthorized: missing or unknown bearer token
	exitCorrupt      = 6 // stored bytes failed integrity verification (checksum mismatch)
	exitShardDown    = 7 // a tasm-router could not reach the shard owning the video
	exitBackpressure = 8 // live append queue full; nothing was written — retry after a pause
	exitInterrupted  = 130
)

// Global connection flags, acceptable before the subcommand too
// (`tasmctl -addr X -token T query …`); each is also settable per
// subcommand.
var (
	globalAddr     string
	globalToken    string
	globalEncoding string
	globalCert     string
	globalKey      string
	globalCA       string
)

// globalFlag matches one leading "-name value" / "-name=value" pair
// into dst, reporting how many args it consumed.
func globalFlag(args []string, name string, dst *string) int {
	switch {
	case args[0] == "-"+name || args[0] == "--"+name:
		if len(args) < 2 {
			usage()
		}
		*dst = args[1]
		return 2
	case strings.HasPrefix(args[0], "-"+name+"="), strings.HasPrefix(args[0], "--"+name+"="):
		*dst = args[0][strings.Index(args[0], "=")+1:]
		return 1
	}
	return 0
}

func main() {
	args := os.Args[1:]
	for len(args) > 0 {
		if n := globalFlag(args, "addr", &globalAddr); n > 0 {
			args = args[n:]
			continue
		}
		if n := globalFlag(args, "token", &globalToken); n > 0 {
			args = args[n:]
			continue
		}
		if n := globalFlag(args, "encoding", &globalEncoding); n > 0 {
			args = args[n:]
			continue
		}
		if n := globalFlag(args, "cert", &globalCert); n > 0 {
			args = args[n:]
			continue
		}
		if n := globalFlag(args, "key", &globalKey); n > 0 {
			args = args[n:]
			continue
		}
		if n := globalFlag(args, "ca", &globalCA); n > 0 {
			args = args[n:]
			continue
		}
		if args[0] == "-h" || args[0] == "--help" || args[0] == "help" {
			// An explicit help request is a success, not invalid input.
			printUsage(os.Stdout)
			os.Exit(exitOK)
		}
		break
	}
	if len(args) == 0 {
		usage()
	}
	// Long-running subcommands honor SIGINT/SIGTERM through the context:
	// the first signal cancels in-flight decodes/encodes at a frame
	// boundary (no mid-write corpses, leases released). Once the context
	// is down, default signal handling is restored, so a second signal
	// kills a command stuck in a non-cancellable section the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	// One trace id per invocation: every remote request this command
	// issues carries it, so a failure is greppable across the router's
	// and shards' access logs and fetchable with `tasmctl trace ID`.
	tid := client.NewTraceID()
	ctx = client.WithTraceID(ctx, tid)
	cmd, cmdArgs := args[0], args[1:]
	var err error
	switch cmd {
	case "ingest":
		err = cmdIngest(ctx, cmdArgs)
	case "detect":
		err = cmdDetect(ctx, cmdArgs)
	case "query":
		err = cmdQuery(ctx, cmdArgs)
	case "info":
		err = cmdInfo(ctx, cmdArgs)
	case "stats":
		err = cmdStats(ctx, cmdArgs)
	case "retile":
		err = cmdRetile(ctx, cmdArgs)
	case "gc":
		err = cmdGC(ctx, cmdArgs)
	case "fsck":
		err = cmdFsck(ctx, cmdArgs)
	case "autotile":
		err = cmdAutotile(ctx, cmdArgs)
	case "trace":
		err = cmdTrace(ctx, cmdArgs)
	case "videos":
		err = cmdVideos(ctx, cmdArgs)
	case "append":
		err = cmdAppend(ctx, cmdArgs)
	case "subscribe":
		err = cmdSubscribe(ctx, cmdArgs)
	case "seal":
		err = cmdSeal(ctx, cmdArgs)
	case "retention":
		err = cmdRetention(ctx, cmdArgs)
	default:
		usage()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "tasmctl %s: interrupted (state is consistent; partial work was rolled back or left committed per operation)\n", cmd)
			os.Exit(exitInterrupted)
		}
		fmt.Fprintf(os.Stderr, "tasmctl %s: %v\n", cmd, err)
		if globalAddr != "" {
			fmt.Fprintf(os.Stderr, "tasmctl %s: trace id %s (tasmctl -addr %s trace %s fetches the server-side timeline)\n", cmd, tid, globalAddr, tid)
		}
		os.Exit(exitCode(err))
	}
}

// exitCode classifies a failure through the typed-error taxonomy.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, tasm.ErrVideoNotFound), errors.Is(err, tasm.ErrSOTNotFound),
		errors.Is(err, client.ErrTraceNotFound):
		return exitNotFound
	case errors.Is(err, tasm.ErrInvalidName), errors.Is(err, tasm.ErrInvalidRange),
		errors.Is(err, tasm.ErrNoFrames), errors.Is(err, client.ErrBadRequest),
		errors.Is(err, tasm.ErrAutotileDisabled), errors.Is(err, errUsage):
		return exitInvalid
	case errors.Is(err, tasm.ErrVideoExists), errors.Is(err, tasm.ErrRetileConflict),
		errors.Is(err, tasm.ErrVideoDeleted), errors.Is(err, tasm.ErrStoreLocked),
		errors.Is(err, tasm.ErrVideoSealed):
		return exitConflict
	case errors.Is(err, client.ErrUnauthorized):
		return exitDenied
	case errors.Is(err, tasm.ErrTileCorrupt):
		return exitCorrupt
	case errors.Is(err, client.ErrShardUnavailable):
		return exitShardDown
	case errors.Is(err, tasm.ErrIngestBackpressure):
		return exitBackpressure
	default:
		return exitFailure
	}
}

// errUsage marks bad command-line input so it exits with exitInvalid.
var errUsage = errors.New("invalid usage")

// parseFlags parses a subcommand's flags with the exit-code contract:
// an explicit -h exits 0, a malformed flag exits 3 (flag.ExitOnError
// would exit 2, colliding with "not found"). The flag package already
// printed the details and defaults to stderr.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(exitOK)
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	return nil
}

func usage() {
	printUsage(os.Stderr)
	os.Exit(exitInvalid)
}

func printUsage(w io.Writer) {
	fmt.Fprintln(w, `usage: tasmctl [-addr HOST:PORT] [-token T] [-encoding E] <command> [flags]

commands:
  ingest  -dir D -preset P [-video NAME] [-w -h -fps -scale -seed]
  detect  -dir D -video V [-detector yolo|tiny|bgsub|yolo-every5] [-from N -to N]
  query   -dir D "SELECT <pred> FROM <video> [WHERE a <= t < b]"
  info    -dir D [-video V]
  stats   -dir D [-json]    decoded-tile cache counters (eviction pressure);
          against a tasm-router also the per-shard breakdown; -json
          emits the same data machine-readable
  trace   -addr H:P ID      fetch a finished request's span timeline from
          the daemon's trace ring (ids come from Tasm-Trace-Id response
          headers, access logs, or a failed tasmctl run's stderr)
  retile  -dir D -video V -sot N -labels a,b
  gc      -dir D            reclaim dead SOT versions and staging debris
  fsck    -dir D [-repair]  verify manifests against tile files on disk
  autotile status|pause|resume  [-dir D] [-reason R]
          inspect or gate the background workload-adaptive re-tiler
  videos  -dir D [-json]    catalog table with live/sealed status,
          trim watermark, and retention policy per video
  append  -dir D -video V -preset P [-from A -to B] [-create]
          append scene frames onto a live video; each GOP-length chunk
          commits atomically (-create opens the live video first;
          successive -from/-to windows simulate a camera feed)
  subscribe -dir D -video V [-from N] [-max N] [-quiet]
          tail committed frames as they land, printing index + crc32;
          resume a dropped tail with -from = last index + 1
  seal    -dir D -video V   convert live -> batch: appends fail, reads
          unchanged, caught-up subscribers terminate cleanly
  retention -dir D -video V [-max-age-frames N] [-max-bytes N] [-clear]
          bound retained history; expired SOTs age out on the append
          path and reads below the trim watermark return nothing

remote mode:
  every command accepts -addr HOST:PORT (before or after the command
  name) to operate a running tasmd instead of opening -dir, -token T
  to authenticate against a -token-file protected daemon, and
  -encoding ndjson|binary to pick the stream wire framing (binary
  ships raw pixel planes: ~25-30% fewer bytes per region; results are
  identical). ingest still writes the scene spec next to -dir locally
  so a later detect can regenerate ground truth; the daemon's codec
  settings govern the stored GOP length. Against an mTLS daemon or
  router (-tls-client-ca), -cert/-key present the client certificate
  and -ca trusts a privately-signed server certificate.

store lock:
  local mode takes the store's ownership lease; pointed at a live
  tasmd's directory it fails fast with "store locked" (exit 4) instead
  of reading stale caches. -force bypasses the lease — recovery only,
  never against a running owner.

exit codes:
  0  success
  1  unclassified failure (I/O, integrity problems, transport)
  2  not found (video, SOT)
  3  invalid input (usage, name, frame range, empty ingest, bad request)
  4  conflict (already exists, concurrent retile, deleted mid-operation,
     store locked by another process)
  5  unauthorized (missing or unknown bearer token)
  6  corrupt (stored tiles failed checksum verification; try fsck -repair)
  7  shard unavailable (a tasm-router's breaker is open for the owning
     shard, or the shard died mid-stream; the rest of the fleet serves)
  8  ingest backpressure (the live video's commit queue is full; nothing
     was written — retry after a pause, or use the client's WithRetry)
  130  interrupted by SIGINT/SIGTERM`)
}

// specPath stores the generating scene spec beside the database so detect
// can regenerate ground truth for the simulated detectors.
func specPath(dir, video string) string {
	return filepath.Join(dir, video+".spec.json")
}

// backend is what every subcommand drives: the one api.Backend the
// daemons serve — the in-process store without -addr, the remote client
// with it — which is why each subcommand works identically either way.
// Every method is context-first: remotely these are HTTP round trips
// against a daemon that may hang, and the signal context must be able
// to abandon them (the client transport deliberately has no timeout).
type backend interface {
	api.Backend
	Close() error
}

// remote is *client.Client as a backend. The client already has the
// Backend's method set; only its stream constructors return its own
// public types, which these lift to the interface's.
type remote struct{ *client.Client }

func (r remote) ScanCursor(ctx context.Context, q tasm.Query) (api.Cursor[tasm.RegionResult], error) {
	return api.Lift[tasm.RegionResult](r.Client.ScanCursor(ctx, q))
}

func (r remote) DecodeFramesCursor(ctx context.Context, video string, from, to int) (api.Cursor[tasm.FrameResult], error) {
	return api.Lift[tasm.FrameResult](r.Client.DecodeFramesCursor(ctx, video, from, to))
}

func (r remote) Subscribe(ctx context.Context, video string, from int) (api.Cursor[tasm.FrameResult], error) {
	return api.Lift[tasm.FrameResult](r.Client.Subscribe(ctx, video, from))
}

// connFlags is the connection contract every subcommand shares:
// remote daemon address and credentials, the stream encoding to
// request, and the local store-lock escape hatch.
type connFlags struct {
	addr     *string
	token    *string
	encoding *string
	cert     *string
	key      *string
	ca       *string
	force    *bool
}

// openBackend connects to tasmd when -addr is set (with the bearer
// token and requested stream encoding), else opens -dir locally with
// the given extra options (taking the store's ownership lease unless
// -force).
func (cf connFlags) openBackend(dir string, opts ...tasm.Option) (backend, error) {
	// Validate -encoding regardless of mode: a typo must not silently
	// no-op just because the run happened to be local.
	var enc client.Encoding
	switch *cf.encoding {
	case "", "ndjson":
		enc = client.NDJSON
	case "binary":
		enc = client.Binary
	default:
		return nil, fmt.Errorf("%w: -encoding must be ndjson or binary, got %q", errUsage, *cf.encoding)
	}
	if (*cf.cert == "") != (*cf.key == "") {
		return nil, fmt.Errorf("%w: -cert and -key must be set together", errUsage)
	}
	if *cf.addr == "" && (*cf.cert != "" || *cf.ca != "") {
		return nil, fmt.Errorf("%w: -cert/-key/-ca are remote-only (they configure the TLS connection to -addr)", errUsage)
	}
	if *cf.addr != "" {
		copts := []client.Option{client.WithEncoding(enc)}
		if *cf.token != "" {
			copts = append(copts, client.WithToken(*cf.token))
		}
		if *cf.ca != "" {
			pem, err := os.ReadFile(*cf.ca)
			if err != nil {
				return nil, fmt.Errorf("reading -ca: %w", err)
			}
			pool := x509.NewCertPool()
			if !pool.AppendCertsFromPEM(pem) {
				return nil, fmt.Errorf("-ca %s: no CA certificates found", *cf.ca)
			}
			copts = append(copts, client.WithTLS(&tls.Config{RootCAs: pool}))
		}
		if *cf.cert != "" {
			cert, err := tls.LoadX509KeyPair(*cf.cert, *cf.key)
			if err != nil {
				return nil, fmt.Errorf("loading -cert/-key: %w", err)
			}
			copts = append(copts, client.WithClientCert(cert))
		}
		c, err := client.New(*cf.addr, copts...)
		if err != nil {
			return nil, err
		}
		return remote{c}, nil
	}
	if *cf.force {
		opts = append(opts, tasm.WithForceOpen())
	}
	opts = append([]tasm.Option{tasm.WithMinTileSize(32, 32)}, opts...)
	sm, err := tasm.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	return server.Local{StorageManager: sm}, nil
}

// addrFlag registers the per-subcommand connection flags (defaulting
// to the global leading forms).
func addrFlag(fs *flag.FlagSet) connFlags {
	return connFlags{
		addr:     fs.String("addr", globalAddr, "remote tasmd address (host:port); empty = local -dir"),
		token:    fs.String("token", globalToken, "bearer token for a -token-file protected daemon"),
		encoding: fs.String("encoding", globalEncoding, "stream encoding to request remotely: ndjson (default) or binary"),
		cert:     fs.String("cert", globalCert, "client certificate (PEM) for an mTLS daemon; requires -key"),
		key:      fs.String("key", globalKey, "client private key (PEM); requires -cert"),
		ca:       fs.String("ca", globalCA, "CA bundle (PEM) to verify the server (private CAs; implies HTTPS)"),
		force:    fs.Bool("force", false, "open a locked local store anyway (recovery only: unsafe against a live owner)"),
	}
}

func cmdIngest(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	preset := fs.String("preset", "", "scene preset name (see tasm-datagen)")
	name := fs.String("video", "", "stored video name (default preset name)")
	width := fs.Int("w", 320, "width")
	height := fs.Int("h", 180, "height")
	fps := fs.Int("fps", 30, "frames per second")
	scaleF := fs.Float64("scale", 1.0, "duration scale")
	seed := fs.Uint64("seed", 42, "seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *preset == "" {
		return fmt.Errorf("%w: missing -preset", errUsage)
	}
	opts := scene.Options{Width: *width, Height: *height, FPS: *fps, DurationScale: *scaleF, Seed: *seed}
	var spec *scene.Spec
	for _, p := range scene.Presets(opts) {
		if p.Spec.Name == *preset {
			s := p.Spec
			spec = &s
			break
		}
	}
	if spec == nil {
		return fmt.Errorf("%w: unknown preset %q", errUsage, *preset)
	}
	if *name != "" {
		spec.Name = *name
	}
	v, err := scene.Generate(*spec)
	if err != nil {
		return err
	}
	// One-second GOPs (and thus SOTs), the default in most encoders.
	// Remotely the daemon's codec configuration governs GOP length.
	b, err := addr.openBackend(*dir, tasm.WithGOPLength(spec.FPS))
	if err != nil {
		return err
	}
	defer b.Close()
	st, err := b.IngestContext(ctx, spec.Name, v.Frames(0, spec.NumFrames()), spec.FPS)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	// The spec lands beside -dir even in remote mode: it is client-side
	// provenance that a later `tasmctl detect` needs to regenerate the
	// ground truth, not server state.
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(specPath(*dir, spec.Name), data, 0o644); err != nil {
		return err
	}
	fmt.Printf("ingested %s: %d frames, %d SOTs, %d KiB, encode %s\n",
		spec.Name, spec.NumFrames(), st.SOTs, st.Bytes/1024, st.EncodeWall.Round(1e6))
	return nil
}

func cmdDetect(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	video := fs.String("video", "", "video name")
	detName := fs.String("detector", "yolo", "yolo | tiny | bgsub | yolo-every5")
	from := fs.Int("from", 0, "first frame")
	to := fs.Int("to", -1, "end frame (exclusive; -1 = all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *video == "" {
		return fmt.Errorf("%w: missing -video", errUsage)
	}
	data, err := os.ReadFile(specPath(*dir, *video))
	if err != nil {
		return fmt.Errorf("no saved spec for %q (ingest with tasmctl): %w", *video, err)
	}
	var spec scene.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	v, err := scene.Generate(spec)
	if err != nil {
		return err
	}
	if *to < 0 || *to > spec.NumFrames() {
		*to = spec.NumFrames()
	}
	var det detect.Detector
	lat := detect.DefaultLatencies()
	switch *detName {
	case "yolo":
		det = &detect.Oracle{Lat: lat}
	case "tiny":
		det = &detect.Tiny{Lat: lat}
	case "bgsub":
		det = &detect.BackgroundSub{Lat: lat}
	case "yolo-every5":
		det = &detect.EveryN{Inner: &detect.Oracle{Lat: lat}, N: 5}
	default:
		return fmt.Errorf("%w: unknown detector %q", errUsage, *detName)
	}
	ds, simLat := detect.Run(det, v, *from, *to)
	// Honor a signal before touching the index: the batch insert plus the
	// MarkDetected records below are one logical write.
	if err := ctx.Err(); err != nil {
		return err
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	if err := b.AddDetectionsContext(ctx, *video, ds); err != nil {
		return err
	}
	labels := map[string]bool{}
	for _, d := range ds {
		labels[d.Label] = true
	}
	for label := range labels {
		if err := b.MarkDetectedContext(ctx, *video, label, *from, *to); err != nil {
			return err
		}
	}
	fmt.Printf("%s over frames [%d,%d): %d detections, %d labels, simulated latency %s\n",
		det.Name(), *from, *to, len(ds), len(labels), simLat.Round(1e6))
	return nil
}

func cmdQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	adaptive := fs.Bool("adaptive", false, "enable regret-based adaptive tiling (local mode only)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%w: expected one SQL argument", errUsage)
	}
	if *adaptive && *addr.addr != "" {
		return fmt.Errorf("%w: -adaptive is local-only (the daemon owns its tiling policy)", errUsage)
	}
	// Pre-parse with the same parser both the local manager and the
	// server use, so a SQL typo exits 3 identically in both modes
	// (locally the parse error wraps no sentinel and would fall to 1).
	q, err := tasm.ParseQuery(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	var opts []tasm.Option
	if *adaptive {
		opts = append(opts, tasm.WithAdaptiveTiling())
	}
	b, err := addr.openBackend(*dir, opts...)
	if err != nil {
		return err
	}
	defer b.Close()
	cur, err := b.ScanCursor(ctx, q)
	if err != nil {
		return err
	}
	defer cur.Close()
	var res []tasm.RegionResult
	for cur.Next() {
		res = append(res, cur.Result())
	}
	if err := cur.Err(); err != nil {
		return err
	}
	st := cur.Stats()
	fmt.Printf("regions: %d  frames touched: %d  SOTs: %d\n", len(res), countFrames(res), st.SOTsTouched)
	fmt.Printf("decode: %s (%d tiles, %d frames, %.2f Mpx)  assemble: %s  index: %s\n",
		st.DecodeWall.Round(1e4), st.TilesDecoded, st.FramesDecoded,
		float64(st.PixelsDecoded)/1e6, st.AssembleWall.Round(1e4), st.IndexWall.Round(1e4))
	return nil
}

func cmdStats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON (totals plus per-shard breakdown against a router)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	// Against a tasm-router the stats carry a per-shard breakdown;
	// against a plain tasmd or a local store the shard list is empty
	// and only the totals print. One code path serves all three.
	sharded, err := b.StatsContext(ctx)
	if err != nil {
		return err
	}
	st, shards := sharded.Stats, sharded.Shards
	if *asJSON {
		// The totals and each shard row are GET /v1/stats's own objects,
		// so the CLI and a curl user read the same key names.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Totals tasm.CacheStats           `json:"totals"`
			Shards []rpcwire.ShardCacheStats `json:"shards,omitempty"`
		}{st, shards})
	}
	for _, s := range shards {
		health := "up"
		if !s.Healthy {
			health = "DOWN"
		}
		if s.Error != "" {
			fmt.Printf("shard %-12s %-21s %-4s unreachable: %s\n", s.Shard, s.Addr, health, s.Error)
			continue
		}
		fmt.Printf("shard %-12s %-21s %-4s hits %d  misses %d  evictions %d  cached %d B in %d entries\n",
			s.Shard, s.Addr, health, s.Stats.Hits, s.Stats.Misses, s.Stats.Evictions, s.Stats.BytesCached, s.Stats.Entries)
	}
	if len(shards) > 0 {
		fmt.Println("merged totals:")
	}
	// Eviction pressure is the ratio operators watch: evictions per
	// miss says whether the budget is churning.
	fmt.Printf("decoded-tile cache: budget %d B, cached %d B in %d entries\n", st.Budget, st.BytesCached, st.Entries)
	fmt.Printf("hits %d  misses %d  evictions %d  invalidations %d\n", st.Hits, st.Misses, st.Evictions, st.Invalidations)
	if st.Budget == 0 {
		fmt.Println("cache disabled (budget 0); enable with tasm.WithCacheBudget / tasmd -cache")
		return nil
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		fmt.Printf("hit rate %.1f%%", 100*float64(st.Hits)/float64(lookups))
		if st.Misses > 0 {
			fmt.Printf("  eviction pressure %.2f evictions/miss", float64(st.Evictions)/float64(st.Misses))
		}
		fmt.Println()
	}
	return nil
}

// cmdTrace fetches one finished request's span timeline from a
// daemon's trace ring. Remote-only: traces live in the serving
// process, there is nothing to look up in a local directory.
func cmdTrace(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	addr := addrFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%w: expected one trace id argument", errUsage)
	}
	if *addr.addr == "" {
		return fmt.Errorf("%w: trace needs -addr (traces live in the serving daemon's ring, not on disk)", errUsage)
	}
	b, err := addr.openBackend("")
	if err != nil {
		return err
	}
	defer b.Close()
	raw, err := b.(remote).TraceContext(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, raw, "", "  "); err != nil {
		return err
	}
	fmt.Println(pretty.String())
	return nil
}

func cmdAutotile(ctx context.Context, args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("%w: autotile needs a verb: status, pause, or resume", errUsage)
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("autotile "+verb, flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	reason := fs.String("reason", "", "why the retiler is being paused (pause only; shown in status)")
	if err := parseFlags(fs, rest); err != nil {
		return err
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	switch verb {
	case "status":
		st, err := b.AutotileStatusContext(ctx)
		if err != nil {
			return err
		}
		if !st.Enabled {
			fmt.Println("autotile: disabled (start tasmd with -autotile, or open with tasm.WithAdaptiveTiling)")
			return nil
		}
		state := "running"
		if st.Paused {
			state = "paused"
			if st.PauseReason != "" {
				state += " (" + st.PauseReason + ")"
			}
		}
		fmt.Printf("autotile: %s\n", state)
		fmt.Printf("queries: %d observed, %d pending, %d dropped\n", st.QueriesObserved, st.QueriesPending, st.QueriesDropped)
		fmt.Printf("actions: %d applied, %d failed\n", st.ActionsApplied, st.ActionsFailed)
		if st.IOBudget > 0 {
			fmt.Printf("retile I/O: %d B spent (budget %d B/s)\n", st.BytesSpent, st.IOBudget)
		} else {
			fmt.Printf("retile I/O: %d B spent (unthrottled)\n", st.BytesSpent)
		}
		fmt.Printf("accumulated regret: %.3f\n", st.Regret)
		if st.LastAction != "" {
			fmt.Printf("last action: %s\n", st.LastAction)
		}
		if st.LastError != "" {
			fmt.Printf("last error: %s\n", st.LastError)
		}
		return nil
	case "pause":
		if err := b.AutotilePauseContext(ctx, *reason); err != nil {
			return err
		}
		fmt.Println("autotile paused")
		return nil
	case "resume":
		if err := b.AutotileResumeContext(ctx); err != nil {
			return err
		}
		fmt.Println("autotile resumed")
		return nil
	default:
		return fmt.Errorf("%w: unknown autotile verb %q (want status, pause, or resume)", errUsage, verb)
	}
}

func cmdGC(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	rep, err := b.GCContext(ctx)
	if err != nil {
		return err
	}
	for _, p := range rep.Removed {
		fmt.Printf("removed  %s\n", p)
	}
	for _, p := range rep.Deferred {
		fmt.Printf("deferred %s (pinned by a read lease)\n", p)
	}
	fmt.Printf("gc: %d removed, %d deferred\n", len(rep.Removed), len(rep.Deferred))
	return nil
}

func cmdFsck(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	repair := fs.Bool("repair", false, "quarantine corrupt tile versions (falling back to intact earlier ones)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	if *repair {
		srep, err := b.RepairStoreContext(ctx)
		if err != nil {
			return err
		}
		for _, q := range srep.Quarantined {
			fmt.Printf("quarantined %s\n", q)
		}
		for _, r := range srep.Reverted {
			fmt.Printf("reverted    %s\n", r)
		}
	}
	rep, err := b.FSCKContext(ctx)
	if err != nil {
		return err
	}
	for _, p := range rep.Problems {
		fmt.Printf("PROBLEM  %s\n", p)
	}
	for _, p := range rep.Orphans {
		fmt.Printf("orphan   %s (gc will reclaim)\n", p)
	}
	fmt.Printf("fsck: %d videos, %d SOTs, %d tiles, %d leases, %d problems, %d orphans\n",
		rep.Videos, rep.SOTs, rep.Tiles, rep.Leases, len(rep.Problems), len(rep.Orphans))
	if !rep.OK() {
		return fmt.Errorf("%d integrity problems", len(rep.Problems))
	}
	return nil
}

func countFrames(res []tasm.RegionResult) int {
	frames := map[int]bool{}
	for _, r := range res {
		frames[r.Frame] = true
	}
	return len(frames)
}

func cmdInfo(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	video := fs.String("video", "", "show one video in detail")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	if *video == "" {
		videos, err := b.VideosContext(ctx)
		if err != nil {
			return err
		}
		for _, name := range videos {
			meta, bytes, labels, err := b.VideoInfoContext(ctx, name)
			if err != nil {
				return err
			}
			fmt.Printf("%-24s %dx%d @%dfps  %d frames  %d SOTs  %d KiB  labels=%v\n",
				name, meta.W, meta.H, meta.FPS, meta.FrameCount, len(meta.SOTs), bytes/1024, labels)
		}
		return nil
	}
	meta, _, _, err := b.VideoInfoContext(ctx, *video)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %dx%d @%dfps, %d frames, GOP %d\n", meta.Name, meta.W, meta.H, meta.FPS, meta.FrameCount, meta.GOPLength)
	for _, sot := range meta.SOTs {
		kind := "untiled"
		if !sot.L.IsSingle() {
			kind = fmt.Sprintf("%dx%d tiles", sot.L.Rows(), sot.L.Cols())
		}
		fmt.Printf("  SOT %2d frames [%4d,%4d)  %-14s retiles=%d\n", sot.ID, sot.From, sot.To, kind, sot.Retiles)
	}
	return nil
}

func cmdRetile(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("retile", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	video := fs.String("video", "", "video name")
	sot := fs.Int("sot", -1, "SOT id")
	labels := fs.String("labels", "", "comma-separated labels to tile around")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *video == "" || *sot < 0 || *labels == "" {
		return fmt.Errorf("%w: need -video, -sot and -labels", errUsage)
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	l, err := b.DesignLayoutContext(ctx, *video, *sot, strings.Split(*labels, ","))
	if err != nil {
		return err
	}
	if l.IsSingle() {
		fmt.Println("no beneficial layout for those labels (staying untiled)")
		return nil
	}
	rs, err := b.RetileSOTContext(ctx, *video, *sot, l)
	if err != nil {
		return err
	}
	fmt.Printf("retiled %s SOT %d to %dx%d tiles (decode %s, encode %s, %d KiB)\n",
		*video, *sot, l.Rows(), l.Cols(), rs.DecodeWall.Round(1e6), rs.EncodeWall.Round(1e6), rs.Bytes/1024)
	return nil
}

// retentionString renders a policy for the videos table: "-" when
// unset, otherwise the active bounds.
func retentionString(pol *tasm.RetentionPolicy) string {
	if pol == nil {
		return "-"
	}
	var parts []string
	if pol.MaxAgeFrames > 0 {
		parts = append(parts, fmt.Sprintf("age<=%df", pol.MaxAgeFrames))
	}
	if pol.MaxBytes > 0 {
		parts = append(parts, fmt.Sprintf("bytes<=%d", pol.MaxBytes))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// videoStatus classifies a catalog entry for operators: an append-mode
// video still accepting frames, one sealed shut, or an ordinary batch
// ingest.
func videoStatus(meta tasm.VideoMeta) string {
	switch {
	case meta.Live:
		return "live"
	case meta.Sealed:
		return "sealed"
	default:
		return "batch"
	}
}

// videoJSON is one row of `videos -json`; field names are CLI contract.
type videoJSON struct {
	Name      string                `json:"name"`
	W         int                   `json:"w"`
	H         int                   `json:"h"`
	FPS       int                   `json:"fps"`
	Frames    int                   `json:"frames"`
	SOTs      int                   `json:"sots"`
	Bytes     int64                 `json:"bytes"`
	Status    string                `json:"status"` // live | sealed | batch
	TrimmedTo int                   `json:"trimmed_to,omitempty"`
	Retention *tasm.RetentionPolicy `json:"retention,omitempty"`
	Labels    []string              `json:"labels,omitempty"`
}

func cmdVideos(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("videos", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON rows")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	videos, err := b.VideosContext(ctx)
	if err != nil {
		return err
	}
	var rows []videoJSON
	for _, name := range videos {
		meta, bytes, labels, err := b.VideoInfoContext(ctx, name)
		if err != nil {
			return err
		}
		rows = append(rows, videoJSON{
			Name: name, W: meta.W, H: meta.H, FPS: meta.FPS,
			Frames: meta.FrameCount, SOTs: len(meta.SOTs), Bytes: bytes,
			Status: videoStatus(meta), TrimmedTo: meta.TrimmedTo,
			Retention: meta.Retention, Labels: labels,
		})
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	if len(rows) == 0 {
		fmt.Println("no videos")
		return nil
	}
	fmt.Printf("%-24s %-12s %8s %5s %9s %-7s %s\n", "NAME", "GEOMETRY", "FRAMES", "SOTS", "KIB", "STATUS", "RETENTION")
	for _, r := range rows {
		status := r.Status
		if r.TrimmedTo > 0 {
			status += fmt.Sprintf(" @%d", r.TrimmedTo)
		}
		fmt.Printf("%-24s %-12s %8d %5d %9d %-7s %s\n",
			r.Name, fmt.Sprintf("%dx%d@%d", r.W, r.H, r.FPS),
			r.Frames, r.SOTs, r.Bytes/1024, status, retentionString(r.Retention))
	}
	return nil
}

func cmdAppend(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("append", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	video := fs.String("video", "", "live video name")
	preset := fs.String("preset", "", "scene preset supplying the frames (see tasm-datagen)")
	from := fs.Int("from", 0, "first scene frame to append")
	to := fs.Int("to", -1, "end scene frame (exclusive; -1 = all) — successive -from/-to windows simulate a camera feed")
	width := fs.Int("w", 320, "width")
	height := fs.Int("h", 180, "height")
	fps := fs.Int("fps", 30, "frames per second")
	scaleF := fs.Float64("scale", 1.0, "duration scale")
	seed := fs.Uint64("seed", 42, "seed")
	create := fs.Bool("create", false, "create the live video first if it does not exist")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *video == "" || *preset == "" {
		return fmt.Errorf("%w: need -video and -preset", errUsage)
	}
	opts := scene.Options{Width: *width, Height: *height, FPS: *fps, DurationScale: *scaleF, Seed: *seed}
	var spec *scene.Spec
	for _, p := range scene.Presets(opts) {
		if p.Spec.Name == *preset {
			s := p.Spec
			spec = &s
			break
		}
	}
	if spec == nil {
		return fmt.Errorf("%w: unknown preset %q", errUsage, *preset)
	}
	v, err := scene.Generate(*spec)
	if err != nil {
		return err
	}
	if *to < 0 || *to > spec.NumFrames() {
		*to = spec.NumFrames()
	}
	if *from < 0 || *from >= *to {
		return fmt.Errorf("%w: empty scene window [%d,%d)", errUsage, *from, *to)
	}
	frames := v.Frames(*from, *to)
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	if *create {
		err := b.CreateLiveContext(ctx, *video, frames[0].W, frames[0].H, spec.FPS, nil)
		// Idempotent on purpose: a chunked append loop passes -create on
		// every call and only the first one wins.
		if err != nil && !errors.Is(err, tasm.ErrVideoExists) {
			return err
		}
	}
	st, err := b.AppendContext(ctx, *video, frames)
	if err != nil {
		return err
	}
	fmt.Printf("appended %d frames to %s: %d SOTs, %d KiB, encode %s, head now %d\n",
		st.Frames, *video, st.SOTs, st.Bytes/1024, st.EncodeWall.Round(1e6), st.FrameCount)
	return nil
}

func cmdSubscribe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	video := fs.String("video", "", "video name")
	from := fs.Int("from", 0, "resume watermark: first frame index to deliver (last seen + 1 to continue a dropped tail)")
	max := fs.Int("max", 0, "stop after this many frames (0 = until sealed or interrupted)")
	quiet := fs.Bool("quiet", false, "suppress the per-frame lines; print only the summary")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *video == "" {
		return fmt.Errorf("%w: missing -video", errUsage)
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	cur, err := b.Subscribe(ctx, *video, *from)
	if err != nil {
		return err
	}
	defer cur.Close()
	n := 0
	for cur.Next() {
		r := cur.Result()
		if !*quiet {
			// The crc is the replay check: the same frame re-scanned later
			// (or tailed again from the same watermark) prints the same sum.
			h := crc32.NewIEEE()
			h.Write(r.Pixels.Y)
			h.Write(r.Pixels.Cb)
			h.Write(r.Pixels.Cr)
			fmt.Printf("frame %6d  %dx%d  crc32 %08x\n", r.Index, r.Pixels.W, r.Pixels.H, h.Sum32())
		}
		n++
		if *max > 0 && n >= *max {
			break
		}
	}
	if *max == 0 || n < *max {
		if err := cur.Err(); err != nil {
			return err
		}
	}
	fmt.Printf("subscribe %s: %d frames delivered\n", *video, n)
	return nil
}

func cmdSeal(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("seal", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	video := fs.String("video", "", "live video name")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *video == "" {
		return fmt.Errorf("%w: missing -video", errUsage)
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	if err := b.SealContext(ctx, *video); err != nil {
		return err
	}
	fmt.Printf("sealed %s (appends now fail; caught-up subscribers terminate cleanly)\n", *video)
	return nil
}

func cmdRetention(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("retention", flag.ContinueOnError)
	dir := fs.String("dir", "tasmdb", "storage directory")
	addr := addrFlag(fs)
	video := fs.String("video", "", "live video name")
	maxAge := fs.Int("max-age-frames", 0, "expire SOTs older than this many frames behind the append head (0 = unbounded)")
	maxBytes := fs.Int64("max-bytes", 0, "expire oldest SOTs while the video exceeds this byte footprint (0 = unbounded)")
	clear := fs.Bool("clear", false, "remove the retention policy (keep everything)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *video == "" {
		return fmt.Errorf("%w: missing -video", errUsage)
	}
	if *clear && (*maxAge > 0 || *maxBytes > 0) {
		return fmt.Errorf("%w: -clear excludes -max-age-frames/-max-bytes", errUsage)
	}
	if !*clear && *maxAge == 0 && *maxBytes == 0 {
		return fmt.Errorf("%w: set -max-age-frames and/or -max-bytes, or -clear", errUsage)
	}
	var pol *tasm.RetentionPolicy
	if !*clear {
		pol = &tasm.RetentionPolicy{MaxAgeFrames: *maxAge, MaxBytes: *maxBytes}
	}
	b, err := addr.openBackend(*dir)
	if err != nil {
		return err
	}
	defer b.Close()
	rep, err := b.SetRetentionContext(ctx, *video, pol)
	if err != nil {
		return err
	}
	if *clear {
		fmt.Printf("retention cleared on %s\n", *video)
		return nil
	}
	fmt.Printf("retention on %s: %s — trimmed %d SOTs now, first stored frame %d, freed %d KiB\n",
		*video, retentionString(pol), len(rep.Removed), rep.TrimmedTo, rep.FreedBytes/1024)
	return nil
}
