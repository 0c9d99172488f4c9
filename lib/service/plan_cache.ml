type rung = Fused | Split | Heuristic

let rung_to_string = function
  | Fused -> "fused"
  | Split -> "split"
  | Heuristic -> "heuristic"

type entry = {
  rung : rung;
  degrade_reason : string option;
  units : Chimera.Compiler.unit_plan list;
}

type verdict = {
  chain_label : string;
  machine_label : string;
  diagnostics : Verify.Diagnostic.t list;
}

(* Doubly-linked recency list with a hash index, following Sim.Lru: the
   head is the most recently used entry, the tail the eviction victim.
   [verdict] always belongs to the current [value]: every write of
   [value] clears it, so a replaced entry can never inherit the verdict
   of the one it displaced. *)
type node = {
  key : string; (* hex fingerprint *)
  mutable value : entry;
  mutable verdict : verdict option;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cap : int;
  metrics : Metrics.t option;
  index : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable is_dirty : bool;
}

(* v2: entries record the degradation rung instead of a fused flag.
   v3: Planner.plan grew search counters (perms_pruned, solver_evals),
   changing the marshalled layout.
   v4: entries are individually framed (length + CRC-32 + marshalled
   bytes) instead of one monolithic marshal, so a torn or bit-flipped
   entry is skipped-and-counted on load rather than discarding the
   whole file — crash consistency for the fleet's shared tier.
   v5: Planner.plan carries the optimality certificate, changing the
   marshalled entry layout again. *)
let file_version = 5

(* Older-but-recognized file versions are migrated, not discarded: the
   magic and fingerprint scheme still match, so the file is an honest
   cache from a previous binary, just with entry layouts we can no
   longer unmarshal safely.  A rolling fleet upgrade hits this on every
   worker's first restart; treating it as corruption would fire the
   cache_corrupt alarms fleet-wide for a planned event. *)
let min_migratable_version = 2

let create ?(capacity = 512) ?metrics () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: non-positive capacity";
  {
    cap = capacity;
    metrics;
    index = Hashtbl.create 64;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    is_dirty = false;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with
  | Some h -> h.prev <- Some node
  | None -> t.tail <- Some node);
  t.head <- Some node

let evict_one t =
  match t.tail with
  | None -> ()
  | Some victim ->
      unlink t victim;
      victim.verdict <- None;
      Hashtbl.remove t.index victim.key;
      t.evictions <- t.evictions + 1;
      Option.iter (fun (m : Metrics.t) -> m.evictions <- m.evictions + 1)
        t.metrics

let find t fp =
  match Hashtbl.find_opt t.index (Fingerprint.to_hex fp) with
  | Some node ->
      t.hits <- t.hits + 1;
      Option.iter (fun (m : Metrics.t) -> m.hits <- m.hits + 1) t.metrics;
      unlink t node;
      push_front t node;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      Option.iter (fun (m : Metrics.t) -> m.misses <- m.misses + 1) t.metrics;
      None

let add_keyed t key entry =
  (match Hashtbl.find_opt t.index key with
  | Some node ->
      node.value <- entry;
      node.verdict <- None;
      unlink t node;
      push_front t node
  | None ->
      while Hashtbl.length t.index >= t.cap do
        evict_one t
      done;
      let node =
        { key; value = entry; verdict = None; prev = None; next = None }
      in
      Hashtbl.add t.index key node;
      push_front t node);
  t.is_dirty <- true

let add t fp entry = add_keyed t (Fingerprint.to_hex fp) entry

(* The node under [fp], but only while it still holds exactly [entry]
   (physical equality): a caller whose entry was replaced or evicted
   since its lookup must neither read nor store the verdict of the
   value that now sits under the key. *)
let holding t fp entry =
  match Hashtbl.find_opt t.index (Fingerprint.to_hex fp) with
  | Some node when node.value == entry -> Some node
  | _ -> None

let verdict t fp entry =
  Option.bind (holding t fp entry) (fun node -> node.verdict)

let set_verdict t fp entry v =
  Option.iter (fun node -> node.verdict <- Some v) (holding t fp entry)

let mem t fp = Hashtbl.mem t.index (Fingerprint.to_hex fp)
let length t = Hashtbl.length t.index
let capacity t = t.cap
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let dirty t = t.is_dirty

let clear t =
  Hashtbl.reset t.index;
  t.head <- None;
  t.tail <- None;
  t.is_dirty <- true

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let magic = "CHIMERA-PLAN-CACHE"
let cache_file ~dir = Filename.concat dir "plan_cache.bin"
let lock_file ~dir = Filename.concat dir "plan_cache.lock"

let header () =
  Printf.sprintf "%s %d %d\n" magic file_version Fingerprint.scheme_version

(* Entries from LRU (tail) to MRU (head), so re-inserting in file order
   restores recency. *)
let entries_oldest_first t =
  let rec walk acc = function
    | None -> acc
    | Some node -> walk ((node.key, node.value) :: acc) node.next
  in
  walk [] t.head

(* ------------------------------------------------------------------ *)
(* Entry framing                                                       *)
(*                                                                     *)
(* Each entry is written as its own frame:                             *)
(*   4 bytes   payload length (big-endian, output_binary_int)          *)
(*   4 bytes   CRC-32 of the payload                                   *)
(*   N bytes   Marshal.to_string (key, entry)                          *)
(* A reader validates every frame independently, so one torn or        *)
(* bit-flipped entry costs exactly that entry, never the file.  The    *)
(* save path does not fsync before its rename — after a power cut the  *)
(* published file can legitimately hold a truncated tail, and the      *)
(* frames are what make that survivable.                               *)
(* ------------------------------------------------------------------ *)

(* An entry any larger than this is itself evidence of corruption (a
   bit-flipped length field): the largest real frames are conv plans
   with their certificates, 220,939 bytes at most over the fleet
   benchmark's 448-request warm pool. *)
let max_frame_bytes = 16 * 1024 * 1024

let write_frame oc kv =
  let payload = Marshal.to_string (kv : string * entry) [] in
  output_binary_int oc (String.length payload);
  output_binary_int oc (Util.Crc32.string payload);
  output_string oc payload

(* Read frames until EOF.  Returns the decodable entries plus how many
   frames were skipped as corrupt.  A bad CRC with intact framing skips
   just that entry and keeps going; a torn or nonsensical length means
   everything after it is untrustworthy, so the remainder counts as one
   skip and reading stops. *)
let read_frames ic =
  let entries = ref [] and skipped = ref 0 in
  let rec go () =
    match input_binary_int ic with
    | exception End_of_file ->
        (* Clean EOF at a frame boundary... unless the file ends with a
           partial length word, which [input_binary_int] also reports as
           End_of_file — indistinguishable, and harmless either way. *)
        ()
    | len ->
        if len <= 0 || len > max_frame_bytes then incr skipped
        else begin
          match
            let crc = input_binary_int ic land 0xFFFFFFFF in
            let payload = really_input_string ic len in
            (crc, payload)
          with
          | exception End_of_file ->
              (* Torn tail: the frame promises more bytes than exist. *)
              incr skipped
          | crc, payload ->
              (if Util.Crc32.string payload <> crc then incr skipped
               else
                 match (Marshal.from_string payload 0 : string * entry) with
                 | kv -> entries := kv :: !entries
                 | exception _ -> incr skipped);
              go ()
        end
  in
  go ();
  (List.rev !entries, !skipped)

(* Count the entries of an older-version file without unmarshalling
   any of them — Marshal.from_string on a stale layout is undefined
   behaviour, so migration only ever inspects framing.  v4 files share
   the current frame format (length + CRC + payload): each CRC-valid
   frame is one migrated entry.  v2/v3 files hold one monolithic
   marshal; a non-empty body counts as a single migrated payload. *)
let count_stale_entries ic ~version =
  if version >= 4 then begin
    let valid = ref 0 in
    let rec go () =
      match input_binary_int ic with
      | exception End_of_file -> ()
      | len ->
          if len <= 0 || len > max_frame_bytes then ()
          else begin
            match
              let crc = input_binary_int ic land 0xFFFFFFFF in
              let payload = really_input_string ic len in
              (crc, payload)
            with
            | exception End_of_file -> ()
            | crc, payload ->
                if Util.Crc32.string payload = crc then incr valid;
                go ()
          end
    in
    go ();
    !valid
  end
  else match input_char ic with exception End_of_file -> 0 | _ -> 1

type payload = {
  payload_entries : (string * entry) list;
  payload_skipped : int;  (** corrupt frames dropped *)
  payload_migrated : int;  (** version-skewed entries counted and skipped *)
}

let parse_header line =
  match String.split_on_char ' ' (String.trim line) with
  | [ m; v; s ] when m = magic ->
      Option.bind (int_of_string_opt v) (fun v ->
          Option.map (fun s -> (v, s)) (int_of_string_opt s))
  | _ -> None

(* Read the persisted entry list without touching any cache state;
   shared by [load] and the merge step of [save]. *)
let read_payload path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match input_line ic with
      | exception End_of_file -> Error "empty file"
      | line -> (
          match parse_header line with
          | None ->
              (* Not a plan-cache file at all (or a garbled header):
                 nothing in it is trustworthy. *)
              Error (Printf.sprintf "header mismatch (%S)" line)
          | Some (_, scheme) when scheme <> Fingerprint.scheme_version ->
              (* Same container, different fingerprint scheme: every
                 persisted key could mean something else now, so the
                 whole file is invalid. *)
              Error (Printf.sprintf "fingerprint scheme mismatch (%d)" scheme)
          | Some (version, _) when version = file_version ->
              let payload_entries, payload_skipped = read_frames ic in
              Ok { payload_entries; payload_skipped; payload_migrated = 0 }
          | Some (version, _)
            when version >= min_migratable_version
                 && version < file_version ->
              (* Version skew (rolling upgrade): count what the old
                 binary had persisted, adopt none of it, and let the
                 next save rewrite the file at the current version.
                 Never a hard error — the cache is a cache. *)
              Ok
                {
                  payload_entries = [];
                  payload_skipped = 0;
                  payload_migrated = count_stale_entries ic ~version;
                }
          | Some (version, _) ->
              (* Newer than us (or pre-history): refusing is safer than
                 guessing at a layout from the future. *)
              Error (Printf.sprintf "unsupported file version %d" version)))

(* Hold an exclusive advisory lock on <dir>/plan_cache.lock for the
   duration of [f].  The lock serializes writers across processes (the
   fleet's workers all persist into one shared directory); readers need
   no lock because the final rename is atomic. *)
let with_dir_lock ~dir f =
  let fd =
    Unix.openfile (lock_file ~dir) [ Unix.O_CREAT; Unix.O_RDWR ] 0o644
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
      Unix.close fd)
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      f ())

(* Multi-process safety, in two layers.  (1) The temp file carries the
   writer's pid, so two workers persisting concurrently can never
   interleave bytes into one file; each rename publishes a complete,
   self-consistent image.  (2) The whole read-merge-write runs under an
   exclusive flock on the directory, and the on-disk entries are folded
   in under this cache's own (fresher) ones — so the shared file
   converges to the union of every worker's plans instead of
   last-writer-wins dropping the others' work.  The shared tier is thus
   bounded by the sum of the workers' in-memory caps; each loader still
   enforces its own LRU capacity on the way back in. *)
let save t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = cache_file ~dir in
  Failpoint.hit ~ctx:path "cache.save";
  with_dir_lock ~dir (fun () ->
      let ours = entries_oldest_first t in
      let mine = Hashtbl.create (List.length ours) in
      List.iter (fun (k, _) -> Hashtbl.replace mine k ()) ours;
      let disk_only =
        if not (Sys.file_exists path) then []
        else
          match read_payload path with
          | Ok { payload_entries; _ } ->
              (* Corrupt or version-skewed frames in the shared file
                 simply fail to make it into the rewrite — the file
                 heals (and upgrades) on every save. *)
              List.filter
                (fun (k, _) -> not (Hashtbl.mem mine k))
                payload_entries
          | Error _ ->
              (* A corrupt or stale shared file heals on the next save:
                 nothing in it is trustworthy, so write only our own. *)
              []
      in
      let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      (match
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () ->
             output_string oc (header ());
             List.iter (write_frame oc) (disk_only @ ours))
       with
      | () -> ()
      | exception e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          raise e);
      (* The torn-save chaos site: a fired failpoint publishes a
         truncated image — exactly what a crash between write and
         fsync leaves behind — and the save still "succeeds", because
         that is what the crashed writer believed too.  Loads recover
         by skipping the torn tail frame-by-frame. *)
      (try Failpoint.hit ~ctx:path "cache.save.torn"
       with Failpoint.Injected _ ->
         let size = (Unix.stat tmp).Unix.st_size in
         let keep = max (String.length (header ())) (size * 3 / 5) in
         let fd = Unix.openfile tmp [ Unix.O_WRONLY ] 0o644 in
         Fun.protect
           ~finally:(fun () -> Unix.close fd)
           (fun () -> Unix.ftruncate fd keep));
      Sys.rename tmp path);
  t.is_dirty <- false

let save_if_dirty t ~dir = if t.is_dirty then save t ~dir

let save_with_retry ?(attempts = 3) ?(backoff_s = 0.01) t ~dir =
  if attempts <= 0 then invalid_arg "Plan_cache.save_with_retry: attempts";
  let rec go n backoff =
    match save t ~dir with
    | () -> Ok ()
    | exception e ->
        let msg =
          match e with
          | Sys_error m -> m
          | Failpoint.Injected site -> "injected fault at " ^ site
          | e -> Printexc.to_string e
        in
        if n >= attempts then
          Error (Printf.sprintf "cache save failed after %d attempts: %s"
                   attempts msg)
        else begin
          Option.iter
            (fun (m : Metrics.t) ->
              m.cache_io_retries <- m.cache_io_retries + 1)
            t.metrics;
          Unix.sleepf backoff;
          go (n + 1) (backoff *. 2.0)
        end
  in
  go 1 backoff_s

type load_outcome =
  | Loaded of { entries : int; skipped : int; migrated : int }
  | Absent
  | Discarded of string

let discard t reason =
  Option.iter
    (fun (m : Metrics.t) -> m.cache_corrupt <- m.cache_corrupt + 1)
    t.metrics;
  Discarded reason

let load t ~dir =
  let path = cache_file ~dir in
  if not (Sys.file_exists path) then Absent
  else
    match
      Failpoint.hit ~ctx:path "cache.load";
      read_payload path
    with
    | Ok { payload_entries = loaded; payload_skipped = skipped;
           payload_migrated = migrated } ->
        List.iter (fun (key, entry) -> add_keyed t key entry) loaded;
        t.is_dirty <- false;
        if skipped > 0 then
          Option.iter
            (fun (m : Metrics.t) ->
              m.cache_entries_skipped <- m.cache_entries_skipped + skipped)
            t.metrics;
        if migrated > 0 then
          Option.iter
            (fun (m : Metrics.t) ->
              m.cache_entries_migrated <- m.cache_entries_migrated + migrated)
            t.metrics;
        Loaded { entries = List.length loaded; skipped; migrated }
    | Error reason -> discard t (path ^ ": " ^ reason)
    | exception Sys_error msg -> discard t msg
    | exception Failpoint.Injected site ->
        discard t (path ^ ": injected fault at " ^ site)

let loaded_count = function
  | Loaded { entries; _ } -> entries
  | Absent | Discarded _ -> 0

let skipped_count = function
  | Loaded { skipped; _ } -> skipped
  | Absent | Discarded _ -> 0

let migrated_count = function
  | Loaded { migrated; _ } -> migrated
  | Absent | Discarded _ -> 0
