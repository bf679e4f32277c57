(* Unit and property tests for the util substrate. *)

open Pdb_util

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ---------- Varint ---------- *)

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.put_uvarint buf n;
      let v, pos = Varint.get_uvarint (Buffer.contents buf) 0 in
      check Alcotest.int "value" n v;
      check Alcotest.int "consumed" (Buffer.length buf) pos)
    [ 0; 1; 127; 128; 300; 16383; 16384; 1 lsl 28; max_int ]

let test_varint_sequence () =
  let buf = Buffer.create 64 in
  let values = [ 5; 0; 1000000; 77; 128 ] in
  List.iter (Varint.put_uvarint buf) values;
  let s = Buffer.contents buf in
  let rec decode pos acc =
    if pos >= String.length s then List.rev acc
    else
      let v, pos = Varint.get_uvarint s pos in
      decode pos (v :: acc)
  in
  check Alcotest.(list int) "sequence" values (decode 0 [])

let test_varint_truncated () =
  Alcotest.check_raises "truncated"
    (Invalid_argument "Varint.get_uvarint: truncated") (fun () ->
      ignore (Varint.get_uvarint "\xff" 0))

let test_fixed_roundtrip () =
  let buf = Buffer.create 16 in
  Varint.put_fixed32 buf 0xDEADBEEF;
  Varint.put_fixed64 buf 0x1122334455667788L;
  let s = Buffer.contents buf in
  check Alcotest.int "fixed32" 0xDEADBEEF (Varint.get_fixed32 s 0);
  check Alcotest.bool "fixed64" true
    (Int64.equal 0x1122334455667788L (Varint.get_fixed64 s 4))

let test_length_prefixed () =
  let buf = Buffer.create 16 in
  Varint.put_length_prefixed buf "hello";
  Varint.put_length_prefixed buf "";
  Varint.put_length_prefixed buf "world!";
  let s = Buffer.contents buf in
  let a, pos = Varint.get_length_prefixed s 0 in
  let b, pos = Varint.get_length_prefixed s pos in
  let c, _ = Varint.get_length_prefixed s pos in
  check Alcotest.(list string) "slices" [ "hello"; ""; "world!" ] [ a; b; c ]

let prop_varint =
  qtest "varint roundtrip (random)"
    QCheck.(map abs small_int)
    (fun n ->
      let buf = Buffer.create 16 in
      Varint.put_uvarint buf n;
      fst (Varint.get_uvarint (Buffer.contents buf) 0) = n)

(* ---------- CRC32C ---------- *)

let test_crc_known () =
  (* CRC-32C of "123456789" is 0xE3069283 (standard check value). *)
  check Alcotest.int "check value" 0xE3069283 (Crc32c.string "123456789")

let test_crc_slice () =
  let s = "xxthe quick brown foxyy" in
  check Alcotest.int "slice equals substring crc"
    (Crc32c.string "the quick brown fox")
    (Crc32c.update 0 s 2 19)

let test_crc_mask_roundtrip () =
  List.iter
    (fun c ->
      check Alcotest.int "unmask (mask c) = c" c
        (Crc32c.unmask (Crc32c.masked c)))
    [ 0; 1; 0xDEADBEEF land 0xFFFFFFFF; 0xFFFFFFFF; 12345678 ]

let prop_crc_differs =
  qtest "crc distinguishes single-byte changes" QCheck.string (fun s ->
      String.length s < 2
      ||
      let s' = Bytes.of_string s in
      Bytes.set s' 0 (Char.chr ((Char.code s.[0] + 1) land 0xff));
      Crc32c.string s <> Crc32c.string (Bytes.to_string s'))

(* The byte-at-a-time CRC-32C, the reference for the sliced one. *)
let crc_reference =
  let table =
    Array.init 256 (fun i ->
        let c = ref i in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
        done;
        !c)
  in
  fun crc s pos len ->
    let crc = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      crc := table.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
    done;
    !crc lxor 0xFFFFFFFF

let prop_crc_matches_reference =
  let gen =
    QCheck.Gen.(
      string_size (int_bound 4096) >>= fun s ->
      let n = String.length s in
      int_bound n >>= fun pos ->
      int_bound (n - pos) >>= fun len ->
      map (fun crc -> (crc, s, pos, len)) (int_bound 0xFFFFFFFF))
  in
  let print (crc, s, pos, len) =
    Printf.sprintf "crc %#x, %d-byte string, pos %d, len %d" crc
      (String.length s) pos len
  in
  qtest ~count:500 "crc = byte-wise reference (random ranges, seeds)"
    (QCheck.make ~print gen)
    (fun (crc, s, pos, len) ->
      Crc32c.update crc s pos len = crc_reference crc s pos len)

let test_crc_allocates_nothing () =
  let s = String.init 1024 (fun i -> Char.chr (i * 7 land 0xff)) in
  let crc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    crc := Crc32c.update !crc s 3 1000
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "same as the reference"
    (let c = ref 0 in
     for _ = 1 to 100 do
       c := crc_reference !c s 3 1000
     done;
     !c)
    !crc;
  check (Alcotest.float 0.0) "minor words" 0.0 words

(* ---------- Murmur3 ---------- *)

let test_murmur_deterministic () =
  check Alcotest.int "same input same hash" (Murmur3.hash32 "pebbles")
    (Murmur3.hash32 "pebbles");
  check Alcotest.bool "seed changes hash" true
    (Murmur3.hash32 ~seed:1 "pebbles" <> Murmur3.hash32 ~seed:2 "pebbles")

let test_murmur_spread () =
  (* Hashing 10k sequential keys should produce ~even bit distribution in
     the low bits (the bits guard selection depends on). *)
  let n = 10_000 in
  let ones = ref 0 in
  for i = 0 to n - 1 do
    let h = Murmur3.hash32 (Printf.sprintf "key%08d" i) in
    if h land 1 = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "low bit balanced" true (frac > 0.45 && frac < 0.55)

let test_trailing_ones () =
  check Alcotest.int "0b0111" 3 (Murmur3.trailing_ones 0b0111);
  check Alcotest.int "0b0110" 0 (Murmur3.trailing_ones 0b0110);
  check Alcotest.int "0" 0 (Murmur3.trailing_ones 0);
  check Alcotest.int "0b1111" 4 (Murmur3.trailing_ones 0b1111)

(* ---------- Histogram ---------- *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  check (Alcotest.float 0.001) "mean" 50.5 (Histogram.mean h);
  check (Alcotest.float 0.001) "median" 50.0 (Histogram.median h);
  check (Alcotest.float 0.001) "p90" 90.0 (Histogram.percentile h 90.0);
  check (Alcotest.float 0.001) "p95" 95.0 (Histogram.percentile h 95.0);
  check (Alcotest.float 0.001) "min" 1.0 (Histogram.min_value h);
  check (Alcotest.float 0.001) "max" 100.0 (Histogram.max_value h)

let test_histogram_empty () =
  let h = Histogram.create () in
  check (Alcotest.float 0.0) "mean empty" 0.0 (Histogram.mean h);
  check (Alcotest.float 0.0) "median empty" 0.0 (Histogram.median h)

let test_histogram_interleaved_sorting () =
  let h = Histogram.create () in
  Histogram.add h 5.0;
  ignore (Histogram.median h);
  Histogram.add h 1.0;
  (* adding after a percentile query must keep ordering correct *)
  check (Alcotest.float 0.001) "min after resort" 1.0 (Histogram.min_value h)

(* nearest-rank edges: rank = ceil(p/100 * n) clamped to [1, n] *)
let test_histogram_percentile_edges () =
  let h = Histogram.create () in
  check (Alcotest.float 0.0) "empty p50" 0.0 (Histogram.percentile h 50.0);
  Histogram.add h 7.0;
  check (Alcotest.float 0.0) "single p0" 7.0 (Histogram.percentile h 0.0);
  check (Alcotest.float 0.0) "single p50" 7.0 (Histogram.percentile h 50.0);
  check (Alcotest.float 0.0) "single p100" 7.0 (Histogram.percentile h 100.0);
  let h = Histogram.create () in
  for i = 1 to 10 do
    Histogram.add h (float_of_int i)
  done;
  check (Alcotest.float 0.0) "p0 is min" 1.0 (Histogram.percentile h 0.0);
  check (Alcotest.float 0.0) "p100 is max" 10.0 (Histogram.percentile h 100.0);
  check (Alcotest.float 0.0) "p99.9 is max" 10.0 (Histogram.percentile h 99.9);
  check (Alcotest.float 0.0) "p10 rank-1" 1.0 (Histogram.percentile h 10.0);
  check (Alcotest.float 0.0) "p11 rank-2" 2.0 (Histogram.percentile h 11.0)

(* the sort must cover only the live prefix: after growth past the initial
   capacity, stale slots beyond [len] must never leak into percentiles *)
let test_histogram_growth_sort () =
  let h = Histogram.create () in
  (* descending insert forces worst-case ordering across growth *)
  let n = 200 in
  for i = n downto 1 do
    Histogram.add h (float_of_int i);
    if i mod 17 = 0 then ignore (Histogram.median h)
  done;
  check (Alcotest.float 0.0) "min" 1.0 (Histogram.min_value h);
  check (Alcotest.float 0.0) "max" 200.0 (Histogram.max_value h);
  check (Alcotest.float 0.0) "p50" 100.0 (Histogram.percentile h 50.0);
  check (Alcotest.float 0.0) "p90" 180.0 (Histogram.percentile h 90.0);
  check Alcotest.int "count" n (Histogram.count h)

(* ---------- LRU ---------- *)

let test_lru_basic () =
  let c = Lru.create ~capacity:10 in
  Lru.insert c "a" 1 ~weight:4;
  Lru.insert c "b" 2 ~weight:4;
  check Alcotest.(option int) "find a" (Some 1) (Lru.find c "a");
  Lru.insert c "c" 3 ~weight:4;
  (* "b" was least recently used (a was touched by find) *)
  check Alcotest.(option int) "b evicted" None (Lru.find c "b");
  check Alcotest.(option int) "a survives" (Some 1) (Lru.find c "a");
  check Alcotest.(option int) "c present" (Some 3) (Lru.find c "c")

let test_lru_replace () =
  let c = Lru.create ~capacity:10 in
  Lru.insert c "a" 1 ~weight:4;
  Lru.insert c "a" 9 ~weight:6;
  check Alcotest.(option int) "replaced" (Some 9) (Lru.find c "a");
  check Alcotest.int "used reflects replacement" 6 (Lru.used c)

let test_lru_oversized () =
  let c = Lru.create ~capacity:10 in
  Lru.insert c "big" 1 ~weight:20;
  check Alcotest.(option int) "oversized not cached" None (Lru.find c "big")

let test_lru_remove () =
  let c = Lru.create ~capacity:10 in
  Lru.insert c "a" 1 ~weight:2;
  Lru.remove c "a";
  check Alcotest.(option int) "removed" None (Lru.find c "a");
  check Alcotest.int "weight released" 0 (Lru.used c)

let test_lru_fold () =
  let c = Lru.create ~capacity:100 in
  Lru.insert c "a" 1 ~weight:1;
  Lru.insert c "b" 2 ~weight:1;
  let sum = Lru.fold c (fun acc _ v -> acc + v) 0 in
  check Alcotest.int "fold sum" 3 sum

let prop_lru_capacity =
  qtest "lru never exceeds capacity"
    QCheck.(list (pair small_int small_int))
    (fun ops ->
      let c = Lru.create ~capacity:50 in
      List.iter
        (fun (k, w) ->
          Lru.insert c (string_of_int k) k ~weight:(1 + (w mod 10)))
        ops;
      Lru.used c <= 50)

(* ---------- Rng / Dist ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 17)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 11 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 100 Fun.id) sorted

let test_dist_uniform_bounds () =
  let d = Dist.uniform ~seed:3 100 in
  for _ = 1 to 10_000 do
    let v = Dist.next d in
    Alcotest.(check bool) "uniform in range" true (v >= 0 && v < 100)
  done

let test_dist_zipf_skew () =
  let d = Dist.zipfian ~seed:5 1000 in
  let counts = Array.make 1000 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Dist.next d in
    counts.(v) <- counts.(v) + 1
  done;
  let head = counts.(0) + counts.(1) + counts.(2) in
  Alcotest.(check bool) "top-3 keys take >15%" true
    (float_of_int head /. float_of_int n > 0.15)

let test_dist_zipf_bounds () =
  let d = Dist.scrambled_zipfian ~seed:5 997 in
  for _ = 1 to 20_000 do
    let v = Dist.next d in
    Alcotest.(check bool) "zipf in range" true (v >= 0 && v < 997)
  done

let test_dist_scrambled_spread () =
  let d = Dist.scrambled_zipfian ~seed:5 1000 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let v = Dist.next d in
    counts.(v) <- counts.(v) + 1
  done;
  let head = counts.(0) + counts.(1) + counts.(2) in
  Alcotest.(check bool) "scrambled head not dominant" true (head < 5_000)

let test_dist_latest_favours_recent () =
  let d = Dist.latest ~seed:5 1000 in
  let recent = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Dist.next d >= 900 then incr recent
  done;
  Alcotest.(check bool) "top decile gets most draws" true
    (float_of_int !recent /. float_of_int n > 0.5)

let test_dist_grow () =
  let d = Dist.latest ~seed:9 10 in
  Dist.set_item_count d 1000;
  let seen_big = ref false in
  for _ = 1 to 5000 do
    if Dist.next d > 10 then seen_big := true
  done;
  Alcotest.(check bool) "draws reach grown keyspace" true !seen_big

let () =
  Alcotest.run "util"
    [
      ( "varint",
        [
          Alcotest.test_case "roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "sequence" `Quick test_varint_sequence;
          Alcotest.test_case "truncated" `Quick test_varint_truncated;
          Alcotest.test_case "fixed" `Quick test_fixed_roundtrip;
          Alcotest.test_case "length-prefixed" `Quick test_length_prefixed;
          prop_varint;
        ] );
      ( "crc32c",
        [
          Alcotest.test_case "known value" `Quick test_crc_known;
          Alcotest.test_case "slice" `Quick test_crc_slice;
          Alcotest.test_case "mask roundtrip" `Quick test_crc_mask_roundtrip;
          prop_crc_differs;
          prop_crc_matches_reference;
          Alcotest.test_case "allocates nothing" `Quick
            test_crc_allocates_nothing;
        ] );
      ( "murmur3",
        [
          Alcotest.test_case "deterministic" `Quick test_murmur_deterministic;
          Alcotest.test_case "bit spread" `Quick test_murmur_spread;
          Alcotest.test_case "trailing ones" `Quick test_trailing_ones;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "interleaved" `Quick
            test_histogram_interleaved_sorting;
          Alcotest.test_case "nearest-rank edges" `Quick
            test_histogram_percentile_edges;
          Alcotest.test_case "growth keeps sort live-only" `Quick
            test_histogram_growth_sort;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic eviction" `Quick test_lru_basic;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "oversized" `Quick test_lru_oversized;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "fold" `Quick test_lru_fold;
          prop_lru_capacity;
        ] );
      ( "rng-dist",
        [
          Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "uniform bounds" `Quick test_dist_uniform_bounds;
          Alcotest.test_case "zipf skew" `Quick test_dist_zipf_skew;
          Alcotest.test_case "zipf bounds" `Quick test_dist_zipf_bounds;
          Alcotest.test_case "scrambled spread" `Quick
            test_dist_scrambled_spread;
          Alcotest.test_case "latest recency" `Quick
            test_dist_latest_favours_recent;
          Alcotest.test_case "grow keyspace" `Quick test_dist_grow;
        ] );
    ]
