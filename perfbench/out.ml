(* The program's one-line JSON report: every metric with its unit and
   sample count, raw samples for run.py to pool across processes, the
   call tally and the list of failed checks. *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metrics : metric list ref = ref []
let checks : string list ref = ref []

let add name unit_ ~samples value =
  let value = if Float.is_finite value then value else 0.0 in
  metrics := { name; value; unit_; samples } :: !metrics

let raw : (string * int list list) list ref = ref []
let add_raw name rows = raw := (name, rows) :: !raw

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then checks := msg :: !checks) fmt

let json_string s = Printf.sprintf "%S" s (* metric names are plain ASCII *)

let emit ~attempted ~failed ~bad =
  let ms =
    List.rev_map
      (fun m ->
        Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s,\"samples\":%d}"
          (json_string m.name) m.value (json_string m.unit_) m.samples)
      !metrics
  in
  let row r = "[" ^ String.concat "," (List.map string_of_int r) ^ "]" in
  let raws =
    List.rev_map
      (fun (name, rows) -> Printf.sprintf "%s:[%s]" (json_string name) (String.concat "," (List.map row rows)))
      !raw
  in
  Printf.printf
    "{\"attempted\":%d,\"failed\":%d,\"wrong_replies\":%d,\"checks\":[%s],\"metrics\":{%s},\"raw\":{%s}}\n%!"
    attempted failed bad
    (String.concat "," (List.rev_map json_string !checks))
    (String.concat "," ms) (String.concat "," raws)
