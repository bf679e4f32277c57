(* Byte-identity fingerprints of a simulated environment, shared by every
   suite that asserts on-disk bytes.  Files are read with [Env.peek], so
   taking a fingerprint charges no device time and never perturbs the
   clock a test goes on to compare. *)

module Env = Pdb_simio.Env

(** [files env] is every file's (name, hex MD5 of its bytes), sorted by
    name. *)
let files env =
  List.sort compare (Env.list env)
  |> List.map (fun n ->
         let len = Env.file_size env n in
         (n, Digest.to_hex (Digest.string (Env.peek env n ~pos:0 ~len))))

(** [text env] renders {!files} one ["name=md5"] line per file. *)
let text env =
  files env |> List.map (fun (n, h) -> n ^ "=" ^ h) |> String.concat "\n"

(** [md5 env] is one MD5 over every file name and its bytes. *)
let md5 env = Digest.to_hex (Digest.string (text env))
