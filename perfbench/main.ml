(* Benchmark executable.

     main.exe run --workload NAME --seed N [--trace] [--txns N]
                  [--spans FILE]
       runs the workload once in this process and prints one JSON line
       (see Bench.to_json); run.py starts one process per repetition.
     main.exe selftest
       forces every failure kind and checks determinism (Selftest). *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload NAME --seed N [--trace] [--txns N] \
     [--spans FILE]\n       main.exe selftest";
  exit 2

let run_cmd args =
  let workload = ref None and seed = ref None and traced = ref false
  and txns = ref None and spans = ref None in
  let int_of s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_of v); parse rest
    | "--trace" :: rest -> traced := true; parse rest
    | "--txns" :: v :: rest -> txns := Some (int_of v); parse rest
    | "--spans" :: v :: rest -> spans := Some v; parse rest
    | _ -> usage ()
  in
  parse args;
  match !workload, !seed with
  | Some name, Some seed ->
    let w =
      match Workloads.find name with
      | Some w -> w
      | None ->
        prerr_endline ("unknown workload " ^ name);
        exit 2
    in
    if Option.fold ~none:false ~some:(fun n -> n < 1) !txns then usage ();
    let r = Bench.run ~traced:!traced ?txns:!txns w ~seed in
    (* failures go to stderr so the last stdout line stays the result *)
    List.iter
      (fun (l : Bench.leg) ->
        Option.iter
          (Printf.eprintf "%s leg %s: died: %s\n" name l.label)
          l.died;
        List.iter
          (fun (k, n) ->
            Printf.eprintf "%s leg %s: %d txns failed (%s)\n" name l.label n
              (Bench.failure_name k))
          l.failures;
        List.iter
          (fun (f : Ccdb_analysis.Finding.t) ->
            if f.severity = Ccdb_analysis.Finding.Error then
              Format.eprintf "%s leg %s: %a@." name l.label
                Ccdb_analysis.Finding.pp f)
          l.findings)
      r.legs;
    (match !spans with
     | Some path when !traced -> Spans.write path
     | _ -> ());
    print_endline (Ccdb_util.Json.to_string ~indent:0 (Bench.to_json r))
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | [ "selftest" ] -> Selftest.main ()
  | _ -> usage ()
