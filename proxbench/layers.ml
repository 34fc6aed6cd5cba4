(* Per-layer metrics of the traced mode.  Every traced run prints every
   name below, in this order, so that each residual sits next to the
   layer most likely to explain it (engine.residual_s beside the code
   hash rate, daemon.advance_residual_ms beside the journal append). *)

let names =
  [
    ("dataset.generate_s", "s");
    ("traced.contracts_per_ref_s", "1/s");
    ("traced.update_ref_p50_ms", "ms");
    ("traced.update_cpu_p50_ms", "ms");
    ("traced.update_wall_p50_ms", "ms");
    ("host.kernel_ms", "ms");
    ("host.steal_share", "ratio");
    ("pass.wall_s", "s");
    ("pass.residual_s", "s");
    ("engine.run_s", "s");
    ("engine.residual_s", "s");
    ("keccak.code_mb_per_s", "MB/s");
    ("keccak.selectors_per_s", "1/s");
    ("keccak.memo_hits", "count");
    ("keccak.memo_misses", "count");
    ("stage.dedup_check_s", "s");
    ("stage.dedup_check_runs", "count");
    ("stage.proxy_probe_s", "s");
    ("stage.proxy_probe_runs", "count");
    ("stage.logic_resolve_s", "s");
    ("stage.logic_resolve_runs", "count");
    ("stage.classify_s", "s");
    ("stage.classify_runs", "count");
    ("stage.func_collision_s", "s");
    ("stage.func_collision_runs", "count");
    ("stage.storage_collision_s", "s");
    ("stage.storage_collision_runs", "count");
    ("evm.steps_per_contract", "steps");
    ("evm.steps_per_s", "1/s");
    ("chain.get_storage_at_calls", "calls");
    ("logic_resolve.calls_per_slot_proxy", "calls");
    ("dedup.hits", "count");
    ("dedup.hit_ratio", "ratio");
    ("serialize.report_s", "s");
    ("serialize.report_bytes", "bytes");
    ("gc.minor_words_per_contract", "words");
    ("gc.major_collections", "count");
    ("advance.residual_ms", "ms");
    ("daemon.advance_server_ms", "ms");
    ("engine.reanalysis_ms_per_advance", "ms");
    ("daemon.advance_residual_ms", "ms");
    ("journal.append_ms", "ms");
    ("journal.fsync_append_ms", "ms");
    ("snapshot.render_ms", "ms");
    ("journal.recover_s", "s");
    ("journal.bytes_per_advance", "bytes");
    ("tracker.dirty_per_advance", "count");
    ("advance.new_per_advance", "count");
    ("tracker.dirty_ms", "ms");
    ("chain.api_calls_per_advance", "calls");
    ("read.p50_ms", "ms");
    ("read.p90_ms", "ms");
    ("wire.read_server_ms", "ms");
    ("wire.read_overhead_ms", "ms");
    ("findings.p50_ms", "ms");
    ("store.findings_cached_ms", "ms");
    ("trace.joined_requests", "count");
  ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.mem_assoc name names) then invalid_arg ("unknown layer " ^ name);
  Hashtbl.replace t name v

(* The metrics in canonical order; a layer the run did not fill is a
   harness bug, so it fails loudly instead of printing a made-up 0. *)
let to_metrics (t : t) =
  List.map
    (fun (name, unit_) ->
      match Hashtbl.find_opt t name with
      | Some v -> Common.metric name unit_ v
      | None -> failwith ("layer metric not measured: " ^ name))
    names
