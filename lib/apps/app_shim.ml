(** Application shims reproducing the NoSQL-store integrations (§5.4).

    The paper finds that application-level gains are muted for two reasons
    it identifies explicitly: the application adds fixed per-operation
    latency that dwarfs the store (HyperDex: 151 us per insert of which the
    store is 22.3 us; MongoDB: the store is 28 % of write latency), and
    HyperDex performs a get() before every put() ("checks whether a key
    already exists before inserting").  A shim wraps a packaged store with
    exactly those two behaviours, leaving everything else untouched. *)

module Dyn = Pdb_kvs.Store_intf
module Clock = Pdb_simio.Clock
module Wb = Pdb_kvs.Write_batch

type config = {
  app_name : string;
  read_latency_ns : float;  (** app-side work added to every read/scan *)
  write_latency_ns : float;  (** app-side work added to every write *)
  read_before_write : bool;  (** HyperDex's existence check *)
}

(** HyperDex: ~129 us of application latency around a 22 us store insert,
    and a read before every write. *)
let hyperdex =
  {
    app_name = "hyperdex";
    read_latency_ns = 90_000.0;
    write_latency_ns = 129_000.0;
    read_before_write = true;
  }

(** MongoDB: the storage engine accounts for ~28 % of write latency. *)
let mongodb =
  {
    app_name = "mongodb";
    read_latency_ns = 60_000.0;
    write_latency_ns = 80_000.0;
    read_before_write = false;
  }

(** [wrap config store] is [store] as seen through the application. *)
let wrap config (store : Dyn.dyn) =
  let clock = Pdb_simio.Env.clock store.Dyn.d_env in
  (* the client blocks for the application's work on every call, so app
     latency adds to elapsed time rather than overlapping store IO *)
  let charge ns = Clock.stall clock ns in
  (* a batch is one write request; HyperDex reads each key it puts *)
  let before_write batch =
    charge config.write_latency_ns;
    if config.read_before_write then
      Wb.iter batch (function
        | Wb.Put (k, _) -> ignore (store.Dyn.d_get k)
        | Wb.Delete _ -> ())
  in
  {
    store with
    Dyn.d_name = config.app_name ^ "/" ^ store.Dyn.d_name;
    d_put =
      (fun k v ->
        charge config.write_latency_ns;
        if config.read_before_write then ignore (store.Dyn.d_get k);
        store.Dyn.d_put k v);
    d_get =
      (fun k ->
        charge config.read_latency_ns;
        store.Dyn.d_get k);
    d_delete =
      (fun k ->
        charge config.write_latency_ns;
        store.Dyn.d_delete k);
    d_write =
      (fun batch ->
        before_write batch;
        store.Dyn.d_write batch);
    d_write_group =
      (fun batches ->
        List.iter before_write batches;
        store.Dyn.d_write_group batches);
    d_iterator =
      (fun () ->
        charge config.read_latency_ns;
        store.Dyn.d_iterator ());
  }
