(* Experiment T1 (paper §VII-A): regenerate the TCB size table for this
   reproduction, with the same exclusions the paper applies — the paper
   counts 5785 LOC total, of which 1011 LOC is the platform-independent
   monitor core once cryptography, libc-equivalents and boot plumbing
   are excluded. *)

let count_file path =
  let ic = open_in path in
  let rec go n =
    match input_line ic with
    | line ->
        let trimmed = String.trim line in
        let is_code =
          trimmed <> ""
          && not (String.length trimmed >= 2 && String.sub trimmed 0 2 = "(*")
        in
        go (if is_code then n + 1 else n)
    | exception End_of_file ->
        close_in ic;
        n
  in
  go 0

let count_dir dir =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc f ->
          if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
          then acc + count_file (Filename.concat dir f)
          else acc)
        0 entries
  | exception Sys_error _ -> 0

let () =
  let root =
    (* Run from the repo root or from _build; find lib/ upward. A dune
       build tree has its own lib/ copies, so never settle inside
       _build — counts must come from the checked-in sources. *)
    let under_build d =
      List.exists (( = ) "_build") (String.split_on_char '/' d)
    in
    let rec find d =
      if (not (under_build d)) && Sys.file_exists (Filename.concat d "lib/core")
      then d
      else begin
        let parent = Filename.dirname d in
        if parent = d then failwith "cannot locate repo root" else find parent
      end
    in
    find (Sys.getcwd ())
  in
  let dir name = count_dir (Filename.concat root name) in
  let core = dir "lib/core" in
  let crypto = dir "lib/crypto" in
  let hw = dir "lib/hw" in
  let platform = dir "lib/platform" in
  let util = dir "lib/util" in
  let os = dir "lib/os" in
  let attack = dir "lib/attack" in
  let telemetry = dir "lib/telemetry" in
  let analysis = dir "lib/analysis" in
  let faults = dir "lib/faults" in
  let workload = dir "lib/workload" in
  let fleet = dir "lib/fleet" in
  let total =
    core + crypto + hw + platform + util + os + attack + telemetry + analysis
    + faults + workload + fleet
  in
  Printf.printf "T1: trusted code base size (cf. paper §VII-A)\n";
  Printf.printf "%-34s %8s %14s\n" "component" "LOC" "paper analogue";
  let row name loc paper = Printf.printf "%-34s %8d %14s\n" name loc paper in
  row "monitor core (lib/core)" core "1011 (C99)";
  row "cryptography (lib/crypto)" crypto "(excluded)";
  row "platform backends (lib/platform)" platform "(platform)";
  row "hardware model (lib/hw)" hw "(is hardware)";
  row "util (lib/util)" util "(libc equiv)";
  row "untrusted OS model (lib/os)" os "(untrusted)";
  row "adversary models (lib/attack)" attack "(untrusted)";
  row "telemetry (lib/telemetry)" telemetry "(tooling)";
  row "invariant checker (lib/analysis)" analysis "(tooling)";
  row "fault injection (lib/faults)" faults "(tooling)";
  row "workload engine (lib/workload)" workload "(tooling)";
  row "fleet (lib/fleet)" fleet "(tooling)";
  Printf.printf "%-34s %8d %14s\n" "total" total "5785";
  Printf.printf
    "\nTCB in this model = monitor core + crypto + platform glue = %d LOC\n"
    (core + crypto + platform);
  Printf.printf
    "paper: 5785 LOC total (5264 C + 521 asm); 1011 LOC platform-independent\n"
