(* Tests for the simulated storage environment. *)

open Pdb_simio

let check = Alcotest.check

let test_create_append_read () =
  let env = Env.create () in
  let w = Env.create_file env "dir/a" in
  Env.append w "hello ";
  Env.append w "world";
  Env.close w;
  check Alcotest.int "size" 11 (Env.file_size env "dir/a");
  check Alcotest.string "read all" "hello world"
    (Env.read_all env "dir/a" ~hint:Device.Sequential_read);
  check Alcotest.string "read range" "wor"
    (Env.read env "dir/a" ~pos:6 ~len:3 ~hint:Device.Random_read)

let test_read_out_of_bounds () =
  let env = Env.create () in
  let w = Env.create_file env "f" in
  Env.append w "abc";
  Alcotest.(check bool) "raises" true
    (try
       ignore (Env.read env "f" ~pos:1 ~len:5 ~hint:Device.Random_read);
       false
     with Invalid_argument _ -> true)

let test_missing_file () =
  let env = Env.create () in
  Alcotest.(check bool) "raises Sys_error" true
    (try
       ignore (Env.file_size env "nope");
       false
     with Sys_error _ -> true)

let test_rename_delete () =
  let env = Env.create () in
  let w = Env.create_file env "old" in
  Env.append w "data";
  Env.rename env ~src:"old" ~dst:"new";
  Alcotest.(check bool) "old gone" false (Env.exists env "old");
  check Alcotest.string "new has data" "data"
    (Env.read_all env "new" ~hint:Device.Sequential_read);
  Env.delete env "new";
  Alcotest.(check bool) "deleted" false (Env.exists env "new")

let test_stats_accounting () =
  let env = Env.create () in
  let w = Env.create_file env "f" in
  Env.append w (String.make 100 'x');
  Env.append w (String.make 50 'y');
  ignore (Env.read env "f" ~pos:0 ~len:30 ~hint:Device.Random_read);
  let s = Env.stats env in
  check Alcotest.int "bytes written" 150 s.Io_stats.bytes_written;
  check Alcotest.int "bytes read" 30 s.Io_stats.bytes_read;
  check Alcotest.int "write ops" 2 s.Io_stats.write_ops;
  check Alcotest.int "read ops" 1 s.Io_stats.read_ops

(* File bytes are stored in chunks: appends, positioned writes past the
   end (which zero the gap), reads and crash truncation must all agree
   with a flat model of the file, across chunk boundaries. *)
let test_chunked_matches_flat () =
  let rng = Random.State.make [| 15 |] in
  let env = Env.create () in
  let random_string n =
    String.init n (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let check_reads name model =
    let len = Bytes.length model in
    check Alcotest.int (name ^ " size") len (Env.file_size env name);
    check Alcotest.string (name ^ " whole") (Bytes.to_string model)
      (Env.read_all env name ~hint:Device.Sequential_read);
    for _ = 1 to 50 do
      let pos = Random.State.int rng (len + 1) in
      let n = Random.State.int rng (min 70_000 (len - pos) + 1) in
      check Alcotest.string
        (Printf.sprintf "%s [%d,+%d)" name pos n)
        (Bytes.sub_string model pos n)
        (Env.read env name ~pos ~len:n ~hint:Device.Random_read)
    done
  in
  (* appends of every size up to a few chunks, synced half way *)
  let w = Env.create_file env "log" in
  let model = Buffer.create 0 in
  let synced = ref 0 in
  while Buffer.length model < 300_000 do
    let piece = random_string (Random.State.int rng 20_000) in
    Env.append w piece;
    Buffer.add_string model piece;
    if !synced = 0 && Buffer.length model > 150_000 then begin
      Env.sync w;
      synced := Buffer.length model
    end
  done;
  let log = Buffer.to_bytes model in
  check_reads "log" log;
  (* positioned writes, inside the file and past its end *)
  let pages = ref Bytes.empty in
  for _ = 1 to 40 do
    let len = Bytes.length !pages in
    let pos = Random.State.int rng (len + 80_000) in
    let piece = random_string (Random.State.int rng 10_000) in
    Env.write_at env "pages" ~pos piece;
    let n = String.length piece in
    if pos + n > len then begin
      let grown = Bytes.make (pos + n) '\000' in
      Bytes.blit !pages 0 grown 0 len;
      pages := grown
    end;
    Bytes.blit_string piece 0 !pages pos n
  done;
  check_reads "pages" !pages;
  (* an empty read at the end of a file that fills its last chunk *)
  let w = Env.create_file env "full" in
  Env.append w (String.make 65_536 'f');
  check Alcotest.string "empty read at the end" ""
    (Env.read env "full" ~pos:65_536 ~len:0 ~hint:Device.Random_read);
  (* a crash cuts the log back to its synced prefix; a write past the new
     end zeroes the gap over the stale bytes the crash cut off *)
  Env.crash env;
  check_reads "log" (Bytes.sub log 0 !synced);
  check_reads "pages" !pages;
  Env.write_at env "log" ~pos:(!synced + 100) "xyz";
  check_reads "log"
    (Bytes.cat (Bytes.sub log 0 !synced)
       (Bytes.of_string (String.make 100 '\000' ^ "xyz")))

(* [append_buffer] is [append] without the copy: the same bytes, IO
   stats, clock charge and fault label, for every piece size including
   an empty buffer (which, like an empty string, is no IO event). *)
let test_append_buffer_matches_append () =
  let rng = Random.State.make [| 16 |] in
  let pieces =
    List.init 60 (fun i ->
        let n = if i mod 7 = 0 then 0 else Random.State.int rng 30_000 in
        String.init n (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  (* crash at the 41st event: create, then the 40th non-empty piece *)
  let run append =
    let env = Env.create () in
    let plan = Env.Fault_plan.create ~seed:3 ~crash_after:41 () in
    Env.set_fault_plan env plan;
    let w = Env.create_file env "wal" in
    let raised =
      try
        List.iter (append w) pieces;
        None
      with Env.Injected_crash label -> Some label
    in
    ( Env.read_all env "wal" ~hint:Device.Sequential_read,
      Io_stats.snapshot (Env.stats env),
      Clock.elapsed_ns (Clock.snapshot (Env.clock env)),
      raised,
      Env.Fault_plan.fired_at plan )
  in
  let bytes_a, stats_a, clock_a, raised_a, fired_a = run Env.append in
  let bytes_b, stats_b, clock_b, raised_b, fired_b =
    run (fun w s ->
        let b = Buffer.create 16 in
        Buffer.add_string b s;
        Env.append_buffer w b)
  in
  check Alcotest.string "file bytes" bytes_a bytes_b;
  Alcotest.(check bool) "io stats" true (stats_a = stats_b);
  check (Alcotest.float 0.0) "clock" clock_a clock_b;
  check Alcotest.(option string) "raised label" (Some "append:wal") raised_a;
  check Alcotest.(option string) "same raised label" raised_a raised_b;
  check Alcotest.(option string) "fired_at" fired_a fired_b

(* The flat model of one file: its bytes, its synced prefix, and whether
   it was ever synced (and so survives a crash). *)
type flat = {
  mutable data : Bytes.t;
  mutable len : int;
  mutable synced : int;
  mutable durable : bool;
}

let flat_write m pos s =
  let n = String.length s in
  if pos + n > Bytes.length m.data then begin
    let grown = Bytes.make (max (pos + n) (2 * Bytes.length m.data)) '\000' in
    Bytes.blit m.data 0 grown 0 m.len;
    m.data <- grown
  end;
  if pos > m.len then Bytes.fill m.data m.len (pos - m.len) '\000';
  Bytes.blit_string s 0 m.data pos n;
  m.len <- max m.len (pos + n)

(* {!Env.crash} of a one-file environment, drawing from [r] as the
   installed plan's RNG would; false when the file vanishes. *)
let flat_crash m r ~block ~garbage =
  let keep_file, base =
    if m.durable then (true, m.synced) else (Pdb_util.Rng.bool r, 0)
  in
  if keep_file then begin
    let unsynced = m.len - base in
    if unsynced > 0 then begin
      let nblocks = (unsynced + block - 1) / block in
      let keep = min unsynced (block * Pdb_util.Rng.int r (nblocks + 1)) in
      m.len <- base + keep;
      if keep > 0 && Pdb_util.Rng.float r < garbage then begin
        let lo = max base (m.len - block) in
        let n = m.len - lo in
        for _ = 1 to 1 + Pdb_util.Rng.int r (min 8 n) do
          let i = lo + Pdb_util.Rng.int r n in
          let bit = 1 lsl Pdb_util.Rng.int r 8 in
          Bytes.set m.data i
            (Char.chr (Char.code (Bytes.get m.data i) lxor bit))
        done
      end
    end;
    m.synced <- m.len;
    m.durable <- true
  end;
  keep_file

(* Positions near powers of two, in files written in pieces that do not
   line up with them: reads across each, a crash that truncates to each,
   and a torn tail garbled across each must agree with a flat model of
   the file.  The model applies the torn-write rule of {!Env.crash} with
   the plan's RNG to a plain [Bytes.t]. *)
let boundary_positions = [ 4095; 4096; 8191; 16384; 32767; 65535; 65536 ]

let test_chunk_boundaries_match_flat () =
  let rng = Random.State.make [| 17 |] in
  let random_string n =
    String.init n (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let read env name pos n =
    Env.read env name ~pos ~len:n ~hint:Device.Random_read
  in
  List.iter
    (fun p ->
      let label what = Printf.sprintf "%s at %d" what p in
      (* a file of [p] synced bytes then an unsynced tail, written in
         pieces that do not line up with the chunks *)
      let model = random_string (p + 20_000) in
      let env = Env.create () in
      let w = Env.create_file env "f" in
      let rec write_from pos =
        if pos < String.length model then begin
          let limit = if pos < p then p else String.length model in
          let stop = min limit (pos + 1 + Random.State.int rng 5_000) in
          Env.append w (String.sub model pos (stop - pos));
          if stop = p then Env.sync w;
          write_from stop
        end
      in
      write_from 0;
      List.iter
        (fun (lo, hi) ->
          let lo = max 0 lo and hi = min (String.length model) hi in
          check Alcotest.string
            (label (Printf.sprintf "read [%d,%d)" lo hi))
            (String.sub model lo (hi - lo))
            (read env "f" lo (hi - lo)))
        [ (p - 3, p + 3); (p - 1, p); (p, p + 1); (p - 5000, p + 9000) ];
      (* a plain crash keeps exactly the synced [p] bytes *)
      Env.crash env;
      check Alcotest.string (label "crash truncation") (String.sub model 0 p)
        (Env.read_all env "f" ~hint:Device.Sequential_read);
      (* torn tails: sync [p - 3] bytes, append 70 more, and crash under
         a plan with 10-byte blocks that always garbles; any kept tail
         crosses the boundary, and with one kept block so does the
         garbled block *)
      let garbled = ref false in
      for seed = 0 to 9 do
        let base = p - 3 in
        let env = Env.create () in
        let w = Env.create_file env "f" in
        Env.append w (String.sub model 0 base);
        Env.sync w;
        Env.append w (String.sub model base 70);
        Env.set_fault_plan env
          (Env.Fault_plan.create ~garbage_tail_prob:1.0 ~block_bytes:10 ~seed
             ~crash_after:max_int ());
        Env.crash env;
        (* the flat model: the same RNG draws applied to plain bytes *)
        let m =
          { data = Bytes.of_string (String.sub model 0 (base + 70));
            len = base + 70; synced = base; durable = true }
        in
        ignore
          (flat_crash m (Pdb_util.Rng.create seed) ~block:10 ~garbage:1.0);
        let got = Env.read_all env "f" ~hint:Device.Sequential_read in
        check Alcotest.string
          (label (Printf.sprintf "torn tail, seed %d" seed))
          (Bytes.sub_string m.data 0 m.len) got;
        if got <> String.sub model 0 (String.length got) then garbled := true
      done;
      Alcotest.(check bool) (label "some tail garbled") true !garbled)
    boundary_positions

(* [read_view] is [read] without the copy: the same bytes, IO stats,
   clock and errors, for ranges that start or end at each position of
   [boundary_positions], ranges that straddle one, and ranges across the
   end of the file's first append.  A range inside one append's chunk
   comes back as that chunk itself, a straddling one as a copy. *)
let test_read_view_matches_read () =
  let rng = Random.State.make [| 18 |] in
  let size = 140_000 in
  let model = String.init size (fun _ -> Char.chr (Random.State.int rng 256)) in
  let open_env () =
    let env = Env.create () in
    let w = Env.create_file env "f" in
    Env.append w (String.sub model 0 70_000);
    Env.append w (String.sub model 70_000 (size - 70_000));
    Env.sync w;
    env
  in
  let by_read = open_env () and by_view = open_env () in
  let ranges =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun n -> [ (p, n); (p - n, n); (p - 3, 6) ])
          [ 0; 1; 100; 4096 ]
        @ [ (p - 5000, 14_000) ])
      (70_000 :: boundary_positions)
    @ [ (0, size); (0, 0); (size, 0); (size - 1, 1); (70_000, 10) ]
    |> List.filter (fun (pos, len) -> pos >= 0 && pos + len <= size)
  in
  let outcome f =
    match f () with
    | s -> Ok s
    | exception Invalid_argument msg -> Error ("Invalid_argument " ^ msg)
    | exception Sys_error msg -> Error ("Sys_error " ^ msg)
  in
  let same what =
    check Alcotest.bool (what ^ ": io stats") true
      (Io_stats.snapshot (Env.stats by_read)
       = Io_stats.snapshot (Env.stats by_view));
    check (Alcotest.float 0.0) (what ^ ": clock")
      (Clock.elapsed_ns (Clock.snapshot (Env.clock by_read)))
      (Clock.elapsed_ns (Clock.snapshot (Env.clock by_view)))
  in
  List.iter
    (fun (pos, len) ->
      let what = Printf.sprintf "[%d,%d)" pos (pos + len) in
      let read = Env.read by_read "f" ~pos ~len ~hint:Device.Random_read in
      let src, off = Env.read_view by_view "f" ~pos ~len ~hint:Device.Random_read in
      check Alcotest.string what read (String.sub src off len);
      check Alcotest.string (what ^ " = model") (String.sub model pos len) read;
      same what)
    ranges;
  (* a range inside the first append is that append's 70,000-byte
     chunk; one across its end is a copy of just the range *)
  let src, off = Env.read_view by_view "f" ~pos:40_000 ~len:100 ~hint:Device.Random_read in
  check Alcotest.(pair int int) "inside a chunk" (70_000, 40_000)
    (String.length src, off);
  let src, off = Env.read_view by_view "f" ~pos:69_994 ~len:12 ~hint:Device.Random_read in
  check Alcotest.(pair int int) "across a chunk" (12, 0) (String.length src, off);
  ignore (Env.read by_read "f" ~pos:40_000 ~len:100 ~hint:Device.Random_read);
  ignore (Env.read by_read "f" ~pos:69_994 ~len:12 ~hint:Device.Random_read);
  same "after the chunk checks";
  List.iter
    (fun (name, pos, len) ->
      let what = Printf.sprintf "%s [%d,%d)" name pos (pos + len) in
      let a =
        outcome (fun () -> Env.read by_read name ~pos ~len ~hint:Device.Random_read)
      in
      let b =
        outcome (fun () ->
            let src, off =
              Env.read_view by_view name ~pos ~len ~hint:Device.Random_read
            in
            String.sub src off len)
      in
      check Alcotest.(result string string) what a b;
      check Alcotest.bool (what ^ " fails") true (Result.is_error a);
      same what)
    [ ("f", size - 2, 5); ("f", -1, 3); ("f", 0, size + 1); ("f", 10, -1);
      ("missing", 0, 1) ]

(* The chunk model under random operation sequences on a few files:
   appends of sizes around a 4 KB block and past a 64 KB memtable,
   syncs, crashes under a seeded fault plan (torn and garbled tails),
   appends after the truncation a crash leaves, positioned writes that
   overwrite or leave a zeroed gap, deletes, whose chunks later appends
   reuse, and appends through the writer of a deleted file.  A missing
   file is created again by its next append or positioned write; a file
   a positioned write created is truncated by the next append's
   {!Env.create_file}.  After every operation each live file's size,
   random reads and their views match a flat model, which applies
   {!Env.crash}'s torn-write rule with the plan's RNG to each file in
   name order, and {!Env.total_file_bytes} is the live models' total.
   While a file was never truncated, the range each append wrote is one
   chunk of its own: [read_view] returns it at offset 0 and the same
   string each time, so not a copy, and that chunk is at most [slack]
   bytes longer than the range: none for a fresh chunk, less than 288
   for one a delete pooled, and only chunks of 1 KB to 64 KB are
   pooled.  A view one byte longer runs past the chunk's bytes into its
   slack, if any, so it must come back as a copy of the right bytes. *)
type chunk_op =
  | Append of int * int  (** file, bytes *)
  | Sync of int
  | Crash of int  (** the fault plan's seed *)
  | Write_at of int * int * int
      (** file; at [where] past the end (overwriting [-where] bytes
          before it when negative), [n] bytes *)
  | Delete of int
  | Stale_append of int * int
      (** through the writer of the file's last deleted incarnation *)

let chunk_sizes = [ 0; 1; 100; 4000; 4095; 4096; 4097; 70_000 ]
let chunk_files = 3
let chunk_name i = Printf.sprintf "f%d" i

let slack len = if len >= 1024 && len <= 64 * 1024 then 287 else 0

let gen_chunk_ops =
  let open QCheck.Gen in
  let size = oneofl chunk_sizes in
  let file = int_bound (chunk_files - 1) in
  let op =
    frequency
      [
        (6, map2 (fun i n -> Append (i, n)) file size);
        (2, map (fun i -> Sync i) file);
        (1, map (fun seed -> Crash seed) (int_bound 1_000_000));
        ( 1,
          map3
            (fun i where n -> Write_at (i, where, n))
            file
            (oneofl [ -5000; -1; 0; 1; 100; 5000 ])
            size );
        (2, map (fun i -> Delete i) file);
        (1, map2 (fun i n -> Stale_append (i, n)) file size);
      ]
  in
  pair (int_bound 1_000_000) (list_size (int_range 1 40) op)

let print_chunk_ops (seed, ops) =
  let op = function
    | Append (i, n) -> Printf.sprintf "append f%d %d" i n
    | Sync i -> Printf.sprintf "sync f%d" i
    | Crash seed -> Printf.sprintf "crash %d" seed
    | Write_at (i, where, n) -> Printf.sprintf "write_at f%d %+d %d" i where n
    | Delete i -> Printf.sprintf "delete f%d" i
    | Stale_append (i, n) -> Printf.sprintf "stale append f%d %d" i n
  in
  Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map op ops))

(* One file of the random-ops property: its flat model, its writer, the
   ranges appended while it was never truncated, and the writer of its
   last deleted incarnation. *)
type chunk_model = {
  mutable model : flat option;  (** [None] while the file is missing *)
  mutable writer : Env.writer option;
  mutable whole : (int * int) list;
  mutable truncated : bool;
  mutable stale : Env.writer option;
}

let prop_chunks_match_flat =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"chunks = flat model under random ops"
       (QCheck.make ~print:print_chunk_ops gen_chunk_ops)
       (fun (seed, ops) ->
         let rng = Random.State.make [| seed |] in
         let random_string n =
           String.init n (fun _ -> Char.chr (Random.State.int rng 256))
         in
         let env = Env.create () in
         let files =
           Array.init chunk_files (fun _ ->
               { model = None; writer = None; whole = []; truncated = false;
                 stale = None })
         in
         let fresh () =
           { data = Bytes.empty; len = 0; synced = 0; durable = false }
         in
         (* file [i]'s model and writer; without a writer, a truncating
           {!Env.create_file} opens the file (a durable name stays
           durable) *)
         let opened i =
           let f = files.(i) in
           match f.model, f.writer with
           | Some m, Some w -> (m, w)
           | old, _ ->
             let w = Env.create_file env (chunk_name i) in
             let m = fresh () in
             m.durable <- (match old with Some o -> o.durable | None -> false);
             f.model <- Some m;
             f.writer <- Some w;
             f.whole <- [];
             f.truncated <- false;
             (m, w)
         in
         let check_file step i =
           let name = chunk_name i in
           let what fmt =
             Printf.ksprintf (fun s -> step ^ ": " ^ name ^ " " ^ s) fmt
           in
           let view pos len =
             Env.read_view env name ~pos ~len ~hint:Device.Random_read
           in
           match files.(i).model with
           | None ->
             check Alcotest.bool (what "missing") false (Env.exists env name)
           | Some m ->
             check Alcotest.int (what "size") m.len (Env.file_size env name);
             for _ = 1 to 4 do
               let pos = Random.State.int rng (m.len + 1) in
               let len = Random.State.int rng (min 80_000 (m.len - pos) + 1) in
               let expect = Bytes.sub_string m.data pos len in
               check Alcotest.string (what "read [%d,+%d)" pos len) expect
                 (Env.read env name ~pos ~len ~hint:Device.Random_read);
               let src, off = view pos len in
               check Alcotest.string (what "view [%d,+%d)" pos len) expect
                 (String.sub src off len)
             done;
             List.iter
               (fun (pos, len) ->
                 let src, off = view pos len in
                 check Alcotest.int (what "chunk offset [%d,+%d)" pos len) 0
                   off;
                 let extra = String.length src - len in
                 if extra < 0 || extra > slack len then
                   Alcotest.failf "%s" (what "chunk of %d bytes for [%d,+%d)"
                     (String.length src) pos len);
                 check Alcotest.bool (what "viewed [%d,+%d)" pos len) true
                   (fst (view pos len) == src);
                 (* one byte more runs past the chunk's bytes, into its
                    slack if it has any: a copy *)
                 if pos + len < m.len then begin
                   let src, off = view pos (len + 1) in
                   check Alcotest.string (what "view [%d,+%d)" pos (len + 1))
                     (Bytes.sub_string m.data pos (len + 1))
                     (String.sub src off (len + 1))
                 end)
               files.(i).whole
         in
         List.iteri
           (fun k op ->
             let step = Printf.sprintf "op %d" k in
             (match op with
              | Append (i, n) ->
                let m, w = opened i in
                let s = random_string n in
                if n > 0 && not files.(i).truncated then
                  files.(i).whole <- (m.len, n) :: files.(i).whole;
                Env.append w s;
                flat_write m m.len s
              | Sync i ->
                let m, w = opened i in
                Env.sync w;
                m.synced <- m.len;
                m.durable <- true
              | Write_at (i, where, n) ->
                let f = files.(i) in
                let m =
                  match f.model with
                  | Some m -> m
                  | None ->
                    (* a positioned write creates the file, with no
                       writer *)
                    let m = fresh () in
                    f.model <- Some m;
                    f.whole <- [];
                    f.truncated <- false;
                    m
                in
                let pos = max 0 (m.len + where) in
                let s = random_string n in
                if n > 0 && pos >= m.len && not f.truncated then
                  f.whole <- (pos, n) :: f.whole;
                Env.write_at env (chunk_name i) ~pos s;
                flat_write m pos s;
                m.synced <- m.len;
                m.durable <- true
              | Delete i ->
                let f = files.(i) in
                if f.model <> None then begin
                  Env.delete env (chunk_name i);
                  if f.writer <> None then f.stale <- f.writer;
                  f.model <- None;
                  f.writer <- None
                end
              | Stale_append (i, n) -> (
                match files.(i).stale with
                | Some w -> Env.append w (random_string n)
                | None -> ())
              | Crash plan_seed ->
                let garbage = 0.5 in
                Env.set_fault_plan env
                  (Env.Fault_plan.create ~garbage_tail_prob:garbage
                     ~seed:plan_seed ~crash_after:max_int ());
                Env.crash env;
                let r = Pdb_util.Rng.create plan_seed in
                (* {!Env.crash} visits the files in name order *)
                Array.iter
                  (fun f ->
                    match f.model with
                    | None -> ()
                    | Some m ->
                      f.whole <- [];
                      if flat_crash m r ~block:4096 ~garbage then
                        f.truncated <- true
                      else begin
                        f.model <- None;
                        f.writer <- None
                      end)
                  files);
             for i = 0 to chunk_files - 1 do
               check_file step i
             done;
             check Alcotest.int (step ^ ": total bytes")
               (Array.fold_left
                  (fun n f ->
                    match f.model with Some m -> n + m.len | None -> n)
                  0 files)
               (Env.total_file_bytes env))
           ops;
         Array.iteri
           (fun i f ->
             match f.model with
             | Some m ->
               check Alcotest.string (chunk_name i ^ " whole file")
                 (Bytes.sub_string m.data 0 m.len)
                 (Env.read_all env (chunk_name i)
                    ~hint:Device.Sequential_read)
             | None -> ())
           files;
         true))

(* Words allocated so far, minor and direct major-heap, as the perf
   benchmark counts them, and the direct major-heap words alone: a
   chunk over 256 words skips the minor heap. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* A file's chunks hold what was appended and little more: 64 appends of
   4,100 bytes (a 4 KB block and a bit) allocate within 2% of the bytes
   appended, counting minor and direct major-heap words as the perf
   benchmark does. *)
let test_append_allocates_its_bytes () =
  let env = Env.create () in
  let w = Env.create_file env "f" in
  let block = String.make 4100 'b' in
  (* what reading the counters allocates *)
  let t0 = words () in
  let overhead = words () -. t0 in
  let before = words () in
  for _ = 1 to 64 do
    Env.append w block
  done;
  let bytes =
    (words () -. before -. overhead) *. float_of_int (Sys.word_size / 8)
  in
  let appended = float_of_int (64 * String.length block) in
  if bytes > 1.02 *. appended then
    Alcotest.failf "allocated %.0f bytes for %.0f appended (+%.1f%%)" bytes
      appended
      ((bytes /. appended -. 1.0) *. 100.0)

(* A deleted file's chunks hold the next file's appends: with a live
   file of 16 times the deleted bytes beside it, the same 64 appends of
   4,100 bytes into a new file allocate no chunk (no direct major-heap
   word) and, in all, under 2% of the bytes appended, where a file with
   nothing to reuse allocates them all. *)
let test_append_after_delete_allocates_nothing () =
  let env = Env.create () in
  let block = String.make 4100 'b' in
  let fill name blocks =
    let w = Env.create_file env name in
    for _ = 1 to blocks do
      Env.append w block
    done
  in
  fill "live" (16 * 64);
  fill "old" 64;
  Env.delete env "old";
  let t0 = words () in
  let overhead = words () -. t0 in
  let before = words () and major_before = major_words () in
  fill "new" 64;
  let major = major_words () -. major_before in
  let bytes =
    (words () -. before -. overhead) *. float_of_int (Sys.word_size / 8)
  in
  let appended = float_of_int (64 * String.length block) in
  check (Alcotest.float 0.0) "direct major-heap words" 0.0 major;
  if bytes > 0.02 *. appended then
    Alcotest.failf "allocated %.0f bytes for %.0f appended (%.1f%%)" bytes
      appended
      (bytes /. appended *. 100.0);
  check Alcotest.string "new file's bytes"
    (String.concat "" (List.init 64 (fun _ -> block)))
    (Env.read_all env "new" ~hint:Device.Sequential_read)

(* The writer of a deleted file writes into no chunk the file held: a
   crash leaves the file spare capacity past its synced length, the
   delete pools its chunks, a new file takes them, and appends through
   the old writer leave the new file's bytes, and its views, as they
   were. *)
let test_stale_writer_changes_no_file () =
  let env = Env.create () in
  let keep = Env.create_file env "live" in
  Env.append keep (String.make (64 * 4096) 'k');
  Env.sync keep;
  let old = Env.create_file env "old" in
  Env.append old (String.make 4096 'o');
  Env.sync old;
  Env.append old (String.make 4096 'u');
  Env.crash env;
  Env.delete env "old";
  let w = Env.create_file env "new" in
  let fresh = String.init 8192 (fun i -> Char.chr (i land 255)) in
  Env.append w (String.sub fresh 0 4096);
  Env.append w (String.sub fresh 4096 4096);
  Env.sync w;
  let src, off =
    Env.read_view env "new" ~pos:4096 ~len:4096 ~hint:Device.Random_read
  in
  Env.append old (String.make 4096 'x');
  Env.append old (String.make 10_000 'y');
  Env.sync old;
  check Alcotest.string "new file" fresh
    (Env.read_all env "new" ~hint:Device.Sequential_read);
  check Alcotest.string "view of the new file" (String.sub fresh 4096 4096)
    (String.sub src off 4096);
  check Alcotest.bool "old stays deleted" false (Env.exists env "old");
  check Alcotest.int "live file" (64 * 4096) (Env.file_size env "live")

let test_crash_drops_unsynced () =
  let env = Env.create () in
  let w = Env.create_file env "f" in
  Env.append w "durable";
  Env.sync w;
  Env.append w "volatile";
  Env.crash env;
  check Alcotest.string "only synced survives" "durable"
    (Env.read_all env "f" ~hint:Device.Sequential_read)

let test_crash_removes_never_synced () =
  let env = Env.create () in
  let w = Env.create_file env "f" in
  Env.append w "gone";
  Env.crash env;
  Alcotest.(check bool) "file vanished" false (Env.exists env "f")

let test_crash_keeps_synced_empty_file () =
  (* a created-and-synced empty file is durable: "never synced" must not be
     conflated with "synced at length 0" (a fresh WAL is exactly this) *)
  let env = Env.create () in
  let w = Env.create_file env "wal" in
  Env.sync w;
  Env.crash env;
  Alcotest.(check bool) "empty synced file survives" true
    (Env.exists env "wal");
  check Alcotest.int "zero length" 0 (Env.file_size env "wal")

let test_rename_implies_flush () =
  (* ext4 replace-via-rename: a renamed file is durable under its new name
     even if it was never explicitly synced *)
  let env = Env.create () in
  let w = Env.create_file env "tmp" in
  Env.append w "payload";
  Env.rename env ~src:"tmp" ~dst:"installed";
  Env.crash env;
  Alcotest.(check bool) "renamed file survives" true
    (Env.exists env "installed");
  check Alcotest.string "contents durable" "payload"
    (Env.read_all env "installed" ~hint:Device.Sequential_read)

(* ---------- fault injection ---------- *)

let test_fault_crash_after_nth_event () =
  let env = Env.create () in
  let plan = Env.Fault_plan.create ~seed:1 ~crash_after:3 () in
  Env.set_fault_plan env plan;
  let w = Env.create_file env "f" in
  (* create=1, append=2 *)
  Env.append w "one";
  Alcotest.(check bool) "not yet fired" false (Env.Fault_plan.fired plan);
  Alcotest.check_raises "third event fires" (Env.Injected_crash "append:f")
    (fun () -> Env.append w "two");
  Alcotest.(check bool) "fired" true (Env.Fault_plan.fired plan);
  check
    Alcotest.(option string)
    "fired_at labels the event" (Some "append:f")
    (Env.Fault_plan.fired_at plan);
  check Alcotest.int "three ticks observed" 3 (Env.Fault_plan.ticks plan)

(* Run one torn-crash scenario: synced prefix, unsynced suffix, crash under
   a seeded plan.  Returns (synced_prefix, suffix, surviving contents). *)
let torn_scenario ~seed ~garbage_tail_prob =
  let env = Env.create () in
  let prefix = String.make 64 'S' in
  let suffix = String.init 64 (fun i -> Char.chr (65 + (i mod 26))) in
  let w = Env.create_file env "f" in
  Env.append w prefix;
  Env.sync w;
  Env.append w suffix;
  Env.set_fault_plan env
    (Env.Fault_plan.create ~garbage_tail_prob ~block_bytes:8 ~seed
       ~crash_after:max_int ());
  Env.crash env;
  (prefix, suffix, Env.read_all env "f" ~hint:Device.Sequential_read)

let test_fault_torn_prefix () =
  (* without garbling: the synced prefix always survives intact, the
     unsynced suffix survives as a block-granular prefix; across seeds we
     must see a genuinely torn state (neither nothing nor everything) *)
  let torn_seen = ref false in
  for seed = 0 to 19 do
    let prefix, suffix, got = torn_scenario ~seed ~garbage_tail_prob:0.0 in
    let plen = String.length prefix in
    Alcotest.(check bool) "at least the synced prefix" true
      (String.length got >= plen);
    check Alcotest.string "synced prefix intact" prefix
      (String.sub got 0 plen);
    let kept = String.length got - plen in
    check Alcotest.int "block granularity" 0 (kept mod 8);
    check Alcotest.string "kept suffix bytes match what was written"
      (String.sub suffix 0 kept)
      (String.sub got plen kept);
    if kept > 0 && kept < String.length suffix then torn_seen := true
  done;
  Alcotest.(check bool) "some seed tears mid-suffix" true !torn_seen

let test_fault_garbage_tail () =
  (* with garbling forced on: whenever unsynced bytes survive, the tail
     block is garbled (bit flips), but never the synced prefix *)
  let garbled_seen = ref false in
  for seed = 0 to 19 do
    let prefix, suffix, got = torn_scenario ~seed ~garbage_tail_prob:1.0 in
    let plen = String.length prefix in
    check Alcotest.string "synced prefix never garbled" prefix
      (String.sub got 0 plen);
    let kept = String.length got - plen in
    if kept > 0 && String.sub got plen kept <> String.sub suffix 0 kept then
      garbled_seen := true
  done;
  Alcotest.(check bool) "surviving tails get garbled" true !garbled_seen

let test_fault_determinism () =
  (* the same seed must reproduce the same post-crash state, byte for
     byte, across every file — the property the torture sweep relies on *)
  let run () =
    let env = Env.create () in
    Env.set_fault_plan env
      (Env.Fault_plan.create ~block_bytes:16 ~seed:1234 ~crash_after:9 ());
    (try
       for i = 0 to 7 do
         let w = Env.create_file env (Printf.sprintf "f%d" i) in
         Env.append w (String.make (17 * (i + 1)) (Char.chr (97 + i)));
         if i mod 2 = 0 then Env.sync w;
         Env.append w (String.make 33 'z')
       done
     with Env.Injected_crash _ -> ());
    Env.crash env;
    List.map
      (fun name -> (name, Env.read_all env name ~hint:Device.Sequential_read))
      (List.sort compare (Env.list env))
  in
  let a = run () and b = run () in
  check
    Alcotest.(list (pair string string))
    "identical surviving state" a b

let test_with_atomic_defers_crash () =
  let env = Env.create () in
  Env.set_fault_plan env (Env.Fault_plan.create ~seed:7 ~crash_after:2 ());
  let w = Env.create_file env "pages" in
  (* both writes inside the section land; the crash fires at the end *)
  Alcotest.(check bool) "crash deferred to section end" true
    (try
       Env.with_atomic env (fun () ->
           Env.append w "first";
           Env.append w "second");
       false
     with Env.Injected_crash _ -> true);
  check Alcotest.int "section committed as a unit" 11
    (Env.file_size env "pages")

(* The total follows every way a file grows, shrinks or leaves: a
   truncating create, a rename over another file, a positioned write, a
   delete, appends through the writers of files that left, and a
   crash. *)
let test_total_file_bytes () =
  let env = Env.create () in
  let w1 = Env.create_file env "a" in
  Env.append w1 "12345";
  let w2 = Env.create_file env "b" in
  Env.append w2 "123";
  check Alcotest.int "total" 8 (Env.total_file_bytes env);
  let step what expect =
    check Alcotest.int what expect (Env.total_file_bytes env)
  in
  let w3 = Env.create_file env "a" in
  step "truncating create" 3;
  Env.append w1 "gone";
  step "append to the truncated file's old record" 3;
  Env.append w3 "abcdef";
  Env.sync w3;
  Env.rename env ~src:"a" ~dst:"b";
  step "rename over b" 6;
  Env.append w2 "gone";
  step "append to the replaced b" 6;
  Env.write_at env "p" ~pos:10 "xy";
  step "positioned write past the end" 18;
  Env.delete env "p";
  step "delete" 6;
  Env.append w3 "12";
  step "append to the renamed file" 8;
  let w4 = Env.create_file env "c" in
  Env.append w4 "never synced";
  step "new file" 20;
  Env.crash env;
  step "crash: b cut to its synced 6, c gone" 6

let test_clock_lanes () =
  let env = Env.create () in
  let clock = Env.clock env in
  let w = Env.create_file env "f" in
  Env.append w "fg-bytes";
  let snap1 = Clock.snapshot clock in
  Alcotest.(check bool) "foreground charged" true
    (snap1.Clock.foreground_ns > 0.0);
  Clock.with_background clock (fun () -> Env.append w "bg-bytes");
  let snap2 = Clock.snapshot clock in
  Alcotest.(check bool) "background charged" true
    (snap2.Clock.background_ns > 0.0);
  check (Alcotest.float 0.0001) "foreground unchanged by bg work"
    snap1.Clock.foreground_ns snap2.Clock.foreground_ns

let test_clock_elapsed_model () =
  (* foreground IO serialises with the background completion horizon
     (per-worker timelines); CPU overlaps with IO; stalls add on *)
  let c = Clock.create () in
  Clock.advance c 100.0;
  Clock.advance_cpu c 500.0;
  Clock.with_background c (fun () -> Clock.advance c 1000.0);
  Clock.note_bg_horizon c 1000.0;
  let s = Clock.snapshot c in
  check (Alcotest.float 0.001) "device-bound" 1100.0 (Clock.elapsed_ns s);
  Clock.stall c 50.0;
  check (Alcotest.float 0.001) "stalls add on" 1150.0
    (Clock.elapsed_ns (Clock.snapshot c));
  (* a store with no background work is bound by max(cpu, fg) *)
  let c2 = Clock.create () in
  Clock.advance c2 100.0;
  Clock.advance_cpu c2 500.0;
  check (Alcotest.float 0.001) "cpu-bound without bg work" 500.0
    (Clock.elapsed_ns (Clock.snapshot c2))

(* ---------- worker-lane scheduler (Sched) ---------- *)

let fp ?(key_lo = "") ?key_hi level =
  { (Sched.full_range ~level_lo:level ~level_hi:level) with key_lo; key_hi }

(* an FLSM-style merge: reads [level], appends to [level + 1] *)
let merge level =
  { (fp level) with Sched.write_lo = level + 1; write_hi = level + 1 }

let test_sched_depends () =
  (* same level, overlapping key ranges -> dependency *)
  Alcotest.(check bool) "overlap same level" true
    (Sched.depends
       (fp 1 ~key_lo:"a" ~key_hi:"m")
       ~on:(fp 1 ~key_lo:"g" ~key_hi:"z"));
  (* disjoint key ranges -> none *)
  Alcotest.(check bool) "disjoint ranges" false
    (Sched.depends
       (fp 1 ~key_lo:"a" ~key_hi:"g")
       ~on:(fp 1 ~key_lo:"g" ~key_hi:"z"));
  (* disjoint levels -> none *)
  Alcotest.(check bool) "disjoint levels" false
    (Sched.depends (fp 1 ~key_lo:"a") ~on:(fp 2 ~key_lo:"a"));
  (* None upper bound = +infinity *)
  Alcotest.(check bool) "open upper bound" true
    (Sched.depends (fp 1 ~key_lo:"a") ~on:(fp 1 ~key_lo:"zzz"));
  (* read-after-write: L1->L2 waits for the L0->L1 job that wrote L1 *)
  Alcotest.(check bool) "read after write" true
    (Sched.depends (merge 1) ~on:(merge 0));
  (* write-after-read: L0->L1 appends to L1 without waiting for the
     L1->L2 job still reading it *)
  Alcotest.(check bool) "write after read" false
    (Sched.depends (merge 0) ~on:(merge 1));
  (* write-after-write *)
  Alcotest.(check bool) "write after write" true
    (Sched.depends (merge 0) ~on:(fp 1));
  (* a flush reads nothing: it does not wait for the L0 job that reads
     L0, while the next L0 job waits for the flush *)
  let flush = { (fp 0) with Sched.read_hi = -1 } in
  Alcotest.(check bool) "flush after L0 job" false
    (Sched.depends flush ~on:(merge 0));
  Alcotest.(check bool) "L0 job after flush" true
    (Sched.depends (merge 0) ~on:flush);
  (* an empty read span meets no level, even one between its bounds *)
  Alcotest.(check bool) "empty read span" false
    (Sched.depends
       { (fp 3) with Sched.read_lo = 1; read_hi = 0 }
       ~on:(Sched.full_range ~level_lo:0 ~level_hi:1))

let test_sched_disjoint_jobs_overlap () =
  let clock = Clock.create () in
  let s = Sched.create ~clock ~workers:2 () in
  let f1 = Sched.place s (fp 2 ~key_lo:"a" ~key_hi:"g") ~duration_ns:100.0 in
  check Alcotest.bool "first not serialized" false (Sched.serialized s);
  let f2 = Sched.place s (fp 2 ~key_lo:"g" ~key_hi:"p") ~duration_ns:100.0 in
  check Alcotest.bool "second not serialized" false (Sched.serialized s);
  check (Alcotest.float 0.001) "first lane" 100.0 f1;
  check (Alcotest.float 0.001) "second lane runs concurrently" 100.0 f2;
  check (Alcotest.float 0.001) "horizon is the max finish" 100.0
    (Sched.horizon_ns s)

let test_sched_conflicting_jobs_serialize () =
  let clock = Clock.create () in
  let s = Sched.create ~clock ~workers:2 () in
  (* overlapping guard ranges on the same level must serialise even though
     a second worker lane is idle *)
  let f1 = Sched.place s (fp 2 ~key_lo:"a" ~key_hi:"m") ~duration_ns:100.0 in
  check Alcotest.bool "first not serialized" false (Sched.serialized s);
  let f2 = Sched.place s (fp 2 ~key_lo:"g" ~key_hi:"z") ~duration_ns:50.0 in
  check Alcotest.bool "second serialized" true (Sched.serialized s);
  check (Alcotest.float 0.001) "first finishes" 100.0 f1;
  check (Alcotest.float 0.001) "second waits for the first" 150.0 f2;
  let f3 = Sched.place s (fp 3 ~key_lo:"a" ~key_hi:"m") ~duration_ns:10.0 in
  check Alcotest.bool "flag resets on a free placement" false
    (Sched.serialized s);
  check (Alcotest.float 0.001) "third runs on the idle lane" 10.0 f3;
  check (Alcotest.float 0.001) "clock horizon tracks" 150.0
    (Clock.bg_horizon_ns clock)

let test_sched_single_worker_packs_sequentially () =
  let clock = Clock.create () in
  let s = Sched.create ~clock ~workers:1 () in
  ignore (Sched.place s (fp 1 ~key_lo:"a" ~key_hi:"b") ~duration_ns:100.0);
  let f = Sched.place s (fp 1 ~key_lo:"x" ~key_hi:"y") ~duration_ns:100.0 in
  check (Alcotest.float 0.001) "disjoint jobs still queue on one lane" 200.0 f

(* Greedy placement against a list model: lanes are a list of frontiers
   (the workers, then the flush lane), every placed job is kept (the
   scheduler prunes its list), and a job starts after each earlier job
   [waits_for] names, on the eligible lane where it starts earliest, ties
   to the lowest index.  The model's dependency rule works on level
   lists instead of span arithmetic. *)
type sched_job = { flush : bool; jfp : Sched.footprint; dur : float }

let model_placement ~waits_for ~workers jobs =
  let place (lanes, placed, out) j =
    let ready =
      List.fold_left
        (fun acc (on, fin) ->
          if waits_for j.jfp on then Float.max acc fin else acc)
        0.0 placed
    in
    let eligible =
      List.filteri
        (fun i _ -> if j.flush then i = workers else i < workers)
        (List.mapi (fun i free -> (i, free)) lanes)
    in
    let lane, start =
      List.fold_left
        (fun (bl, bs) (i, free) ->
          let s = Float.max free ready in
          if s < bs then (i, s) else (bl, bs))
        (-1, infinity) eligible
    in
    let earliest =
      List.fold_left (fun a (_, f) -> Float.min a f) infinity eligible
    in
    let finish = start +. j.dur in
    let lanes = List.mapi (fun i f -> if i = lane then finish else f) lanes in
    ( lanes,
      (j.jfp, finish) :: placed,
      (lane, start, finish, ready > earliest) :: out )
  in
  let _, _, out =
    List.fold_left place (List.init (workers + 1) (fun _ -> 0.0), [], []) jobs
  in
  List.rev out

let levels lo hi = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i)

(* some range's start key lies in both half-open ranges *)
let keys_overlap (a : Sched.footprint) (b : Sched.footprint) =
  let within k (f : Sched.footprint) =
    f.key_lo <= k && match f.key_hi with None -> true | Some hi -> k < hi
  in
  List.exists (fun k -> within k a && within k b) [ a.key_lo; b.key_lo ]

(* the dependency rule: [on] wrote a level [fp] reads or writes *)
let model_depends (fp : Sched.footprint) (on : Sched.footprint) =
  let touched =
    levels fp.read_lo fp.read_hi @ levels fp.write_lo fp.write_hi
  in
  List.exists (fun l -> List.mem l touched) (levels on.write_lo on.write_hi)
  && keys_overlap fp on

(* the symmetric rule the dependency rule replaced: the spans touch *)
let model_symmetric (a : Sched.footprint) (b : Sched.footprint) =
  List.exists
    (fun l -> List.mem l (levels b.read_lo b.read_hi))
    (levels a.read_lo a.read_hi)
  && keys_overlap a b

let sched_placement ~workers jobs =
  let s = Sched.create ~clock:(Clock.create ()) ~workers () in
  List.map
    (fun j ->
      let cls = if j.flush then `Flush else `Worker in
      let p = Sched.place_span ~cls s j.jfp ~duration_ns:j.dur in
      (p.Sched.lane, p.Sched.start_ns, p.Sched.finish_ns, Sched.serialized s))
    jobs

let gen_sched_jobs ~same_span =
  let open QCheck.Gen in
  let key = oneofl [ ""; "c"; "f"; "k"; "p" ] in
  let footprint =
    map3
      (fun (rlo, rlen) (wlo, wlen) (klo, khi) ->
        let key_hi =
          match khi with Some k when k > klo -> Some k | _ -> None
        in
        if same_span then
          {
            (Sched.full_range ~level_lo:rlo ~level_hi:(rlo + max 0 rlen)) with
            Sched.key_lo = klo;
            key_hi;
          }
        else
          {
            Sched.read_lo = rlo;
            read_hi = rlo + rlen;
            write_lo = wlo;
            write_hi = wlo + wlen;
            key_lo = klo;
            key_hi;
          })
      (pair (int_bound 3) (int_range (-1) 1))
      (pair (int_bound 3) (int_range 0 1))
      (pair key (opt key))
  in
  let dur = oneof [ oneofl [ 1.0; 10.0; 100.0 ]; float_range 1.0 500.0 ] in
  let job =
    map3
      (fun flush jfp dur -> { flush; jfp; dur })
      (frequencyl [ (1, true); (4, false) ])
      footprint dur
  in
  pair (int_range 1 4) (list_size (int_range 1 30) job)

let print_sched_jobs (workers, jobs) =
  let job j =
    let f = j.jfp in
    Printf.sprintf "%sr%d-%d w%d-%d [%S,%s) %g"
      (if j.flush then "F " else "")
      f.read_lo f.read_hi f.write_lo f.write_hi f.key_lo
      (match f.key_hi with None -> "inf" | Some k -> Printf.sprintf "%S" k)
      j.dur
  in
  Printf.sprintf "%d workers: %s" workers
    (String.concat "; " (List.map job jobs))

let prop_sched_matches_model ~name ~same_span ~waits_for =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name
       (QCheck.make ~print:print_sched_jobs (gen_sched_jobs ~same_span))
       (fun (workers, jobs) ->
         sched_placement ~workers jobs
         = model_placement ~waits_for ~workers jobs))

let prop_sched_dependency_rule =
  prop_sched_matches_model ~name:"placement = dependency-rule list model"
    ~same_span:false ~waits_for:model_depends

(* reads = writes everywhere (leveled jobs, shard migration): the
   dependency rule places exactly as the symmetric rule did *)
let prop_sched_symmetric_when_spans_equal =
  prop_sched_matches_model ~name:"reads = writes: placement = symmetric rule"
    ~same_span:true ~waits_for:model_symmetric

let test_device_aging () =
  let d = Device.ssd () in
  let fresh = Device.write_cost d ~bytes:1000 in
  Device.set_aging d 2.0;
  let aged = Device.write_cost d ~bytes:1000 in
  check (Alcotest.float 0.001) "aging doubles cost" (fresh *. 2.0) aged

let test_device_read_hints () =
  let d = Device.ssd () in
  Alcotest.(check bool) "random read costlier than sequential" true
    (Device.read_cost d ~hint:Device.Random_read ~bytes:4096
     > Device.read_cost d ~hint:Device.Sequential_read ~bytes:4096)

let test_truncating_create () =
  let env = Env.create () in
  let w = Env.create_file env "f" in
  Env.append w "aaaa";
  let w2 = Env.create_file env "f" in
  Env.append w2 "b";
  check Alcotest.int "truncated" 1 (Env.file_size env "f")

(* ---------- probe sessions against the list-based model ---------- *)

(* The probe-session model as first written: costs consed onto a list,
   summed newest first, sorted with [List.sort] and packed longest first.
   {!Probe} keeps its costs in a reused float buffer instead; both must
   leave the clock and the trace bit-identical. *)
module Ref_probe = struct
  type session = {
    label : string;
    start_elapsed : float;
    start_lane : float;
    mutable costs : float list;
  }

  type ctx = {
    clock : Clock.t;
    budget : int;
    tracer : unit -> Trace.t option;
    mutable active : session option;
  }

  let create_ctx ~clock ~budget ~tracer () =
    { clock; budget; tracer; active = None }

  let lane_time (c : Clock.t) =
    let s = Clock.snapshot c in
    match c.Clock.lane with
    | Clock.Foreground -> s.Clock.foreground_ns
    | Clock.Background -> s.Clock.background_ns

  let measure ctx f =
    match ctx.active with
    | None -> f ()
    | Some s ->
      let before = lane_time ctx.clock in
      Fun.protect
        ~finally:(fun () ->
          s.costs <- (lane_time ctx.clock -. before) :: s.costs)
        f

  let makespan ~lanes costs =
    let lanes = max 1 lanes in
    let total = List.fold_left ( +. ) 0.0 costs in
    if lanes = 1 then total
    else
      match costs with
      | [] | [ _ ] -> total
      | costs ->
        let loads = Array.make lanes 0.0 in
        List.iter
          (fun c ->
            let least = ref 0 in
            for i = 1 to lanes - 1 do
              if loads.(i) < loads.(!least) then least := i
            done;
            loads.(!least) <- loads.(!least) +. c)
          (List.sort (fun a b -> Float.compare b a) costs);
        Array.fold_left Float.max 0.0 loads

  let now ctx = Clock.elapsed_ns (Clock.snapshot ctx.clock)

  let finish ctx s =
    let n = List.length s.costs in
    if n > 1 then begin
      let total = List.fold_left ( +. ) 0.0 s.costs in
      let overlapped = makespan ~lanes:ctx.budget s.costs in
      let end_lane = lane_time ctx.clock in
      if total > overlapped then
        Clock.refund ctx.clock (0.5 *. (total -. overlapped));
      match ctx.tracer () with
      | Some tr when total > 0.0 ->
        Trace.span tr ~name:("probe:" ^ s.label) ~cat:"probe"
          ~lane:"foreground" ~start_ns:s.start_elapsed
          ~dur_ns:(end_lane -. s.start_lane)
          ~args:
            [
              ("tables", string_of_int n);
              ("serial_ns", Printf.sprintf "%.0f" total);
              ("overlapped_ns", Printf.sprintf "%.0f" overlapped);
              ("budget", string_of_int ctx.budget);
            ]
          ()
      | Some _ | None -> ()
    end

  let with_session ctx ~label f =
    match ctx.active with
    | Some _ -> f ()
    | None ->
      let s =
        {
          label;
          start_elapsed = now ctx;
          start_lane = lane_time ctx.clock;
          costs = [];
        }
      in
      ctx.active <- Some s;
      Fun.protect
        ~finally:(fun () ->
          ctx.active <- None;
          finish ctx s)
        f
end

module type PROBE = sig
  type ctx

  val create_ctx :
    clock:Clock.t ->
    budget:int ->
    tracer:(unit -> Trace.t option) ->
    unit ->
    ctx

  val with_session : ctx -> label:string -> (unit -> 'a) -> 'a
  val measure : ctx -> (unit -> unit) -> unit
end

module New_probe : PROBE = struct
  include Probe

  let measure ctx f = Probe.measure ctx f ()
end

type step =
  | Measured of float  (** a probe that charges the lane *)
  | Plain of float  (** device time outside any probe *)
  | Cpu of float  (** modeled CPU, never overlapped *)
  | Nested of float list  (** a nested session of probes *)
  | Raising of float  (** a probe that charges the lane, then raises *)

type session = {
  budget : int;
  background : bool;  (** run on the background lane *)
  steps : step list;
  raises : bool;  (** the session body raises after its steps *)
}

(* Run [sessions] one after another on one clock with a tracer attached;
   sessions of equal budget share one ctx, so its buffers are reused. *)
let run_sessions (module P : PROBE) sessions =
  let clock = Clock.create () and tr = Trace.create () in
  let ctxs = Hashtbl.create 8 in
  let ctx_for budget =
    match Hashtbl.find_opt ctxs budget with
    | Some ctx -> ctx
    | None ->
      let ctx = P.create_ctx ~clock ~budget ~tracer:(fun () -> Some tr) () in
      Hashtbl.add ctxs budget ctx;
      ctx
  in
  let run_session s =
    let ctx = ctx_for s.budget in
    let probe c = P.measure ctx (fun () -> Clock.advance clock c) in
    let step = function
      | Measured c -> probe c
      | Plain c -> Clock.advance clock c
      | Cpu c -> Clock.advance_cpu clock c
      | Nested cs ->
        P.with_session ctx ~label:"inner" (fun () -> List.iter probe cs)
      | Raising c -> (
        try
          P.measure ctx (fun () ->
              Clock.advance clock c;
              raise Exit)
        with Exit -> ())
    in
    let session () =
      try
        P.with_session ctx ~label:"get" (fun () ->
            List.iter step s.steps;
            if s.raises then raise Exit)
      with Exit -> ()
    in
    if s.background then Clock.with_background clock session else session ()
  in
  List.iter run_session sessions;
  (Clock.snapshot clock, Trace.events tr)

let gen_sessions =
  let open QCheck.Gen in
  (* a few fixed costs make ties common; the rest make float sums depend
     on their order *)
  let cost =
    oneof [ oneofl [ 0.0; 1.0; 100.0; 250.0; 1000.0 ]; float_range 0.0 5000.0 ]
  in
  let step =
    frequency
      [
        (6, map (fun c -> Measured c) cost);
        (1, map (fun c -> Plain c) cost);
        (1, map (fun c -> Cpu c) cost);
        (1, map (fun cs -> Nested cs) (list_size (int_range 0 4) cost));
        (1, map (fun c -> Raising c) cost);
      ]
  in
  list_size (int_range 1 4)
    (map4
       (fun budget background steps raises ->
         { budget; background; steps; raises })
       (int_range 1 8) bool
       (list_size (int_range 0 24) step)
       bool)

let print_sessions sessions =
  let step = function
    | Measured c -> Printf.sprintf "M%h" c
    | Plain c -> Printf.sprintf "P%h" c
    | Cpu c -> Printf.sprintf "C%h" c
    | Nested cs ->
      "N[" ^ String.concat ";" (List.map (Printf.sprintf "%h") cs) ^ "]"
    | Raising c -> Printf.sprintf "R%h" c
  in
  String.concat " | "
    (List.map
       (fun s ->
         Printf.sprintf "budget %d%s%s: %s" s.budget
           (if s.background then " bg" else "")
           (if s.raises then " raises" else "")
           (String.concat " " (List.map step s.steps)))
       sessions)

let bits x = Int64.bits_of_float x

let prop_probe_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"probe sessions = list-based model"
       (QCheck.make ~print:print_sessions gen_sessions)
       (fun sessions ->
         let snap, events = run_sessions (module New_probe) sessions
         and ref_snap, ref_events = run_sessions (module Ref_probe) sessions in
         let clock_bits (s : Clock.snapshot) =
           List.map bits
             [ s.Clock.foreground_ns; s.Clock.background_ns;
               s.Clock.bg_horizon_ns; s.Clock.stall_ns; s.Clock.cpu_ns ]
         in
         let span (e : Trace.event) =
           (e.Trace.name, e.Trace.lane, bits e.Trace.ts_ns, bits e.Trace.dur_ns,
            e.Trace.args)
         in
         clock_bits snap = clock_bits ref_snap
         && List.map span events = List.map span ref_events))

let () =
  Alcotest.run "simio"
    [
      ( "env",
        [
          Alcotest.test_case "create/append/read" `Quick
            test_create_append_read;
          Alcotest.test_case "read out of bounds" `Quick
            test_read_out_of_bounds;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "rename/delete" `Quick test_rename_delete;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "total bytes" `Quick test_total_file_bytes;
          Alcotest.test_case "truncating create" `Quick test_truncating_create;
          Alcotest.test_case "chunked contents match a flat file" `Quick
            test_chunked_matches_flat;
          Alcotest.test_case "append_buffer matches append" `Quick
            test_append_buffer_matches_append;
          Alcotest.test_case "chunk boundaries match a flat file" `Quick
            test_chunk_boundaries_match_flat;
          Alcotest.test_case "read_view matches read" `Quick
            test_read_view_matches_read;
          prop_chunks_match_flat;
          Alcotest.test_case "appends allocate their bytes" `Quick
            test_append_allocates_its_bytes;
          Alcotest.test_case "an append after a delete allocates nothing"
            `Quick test_append_after_delete_allocates_nothing;
          Alcotest.test_case "a deleted file's writer changes no file" `Quick
            test_stale_writer_changes_no_file;
        ] );
      ( "crash",
        [
          Alcotest.test_case "drops unsynced" `Quick test_crash_drops_unsynced;
          Alcotest.test_case "removes never-synced" `Quick
            test_crash_removes_never_synced;
          Alcotest.test_case "keeps synced empty file" `Quick
            test_crash_keeps_synced_empty_file;
          Alcotest.test_case "rename implies flush" `Quick
            test_rename_implies_flush;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "crash after Nth event" `Quick
            test_fault_crash_after_nth_event;
          Alcotest.test_case "torn prefix" `Quick test_fault_torn_prefix;
          Alcotest.test_case "garbage tail" `Quick test_fault_garbage_tail;
          Alcotest.test_case "determinism" `Quick test_fault_determinism;
          Alcotest.test_case "with_atomic defers" `Quick
            test_with_atomic_defers_crash;
        ] );
      ( "clock-device",
        [
          Alcotest.test_case "lanes" `Quick test_clock_lanes;
          Alcotest.test_case "elapsed model" `Quick test_clock_elapsed_model;
          Alcotest.test_case "aging" `Quick test_device_aging;
          Alcotest.test_case "read hints" `Quick test_device_read_hints;
        ] );
      ("probe", [ prop_probe_matches_model ]);
      ( "sched",
        [
          Alcotest.test_case "footprint conflicts" `Quick test_sched_depends;
          Alcotest.test_case "disjoint jobs overlap" `Quick
            test_sched_disjoint_jobs_overlap;
          Alcotest.test_case "conflicting jobs serialize" `Quick
            test_sched_conflicting_jobs_serialize;
          Alcotest.test_case "single worker packs sequentially" `Quick
            test_sched_single_worker_packs_sequentially;
          prop_sched_dependency_rule;
          prop_sched_symmetric_when_spans_equal;
        ] );
    ]
