module App = Ftes_app.App
module Graph = Ftes_app.Graph
module Overheads = Ftes_app.Overheads
module Transparency = Ftes_app.Transparency
module Arch = Ftes_arch.Arch
module Bus = Ftes_arch.Bus
module Wcet = Ftes_arch.Wcet

type t = {
  app : App.t;
  arch : Arch.t;
  wcet : Wcet.t;
  k : int;
}

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type proc_decl = {
  p_name : string;
  p_alpha : float;
  p_mu : float;
  p_chi : float;
  p_release : float;
  p_local_deadline : float option;
  p_frozen : bool;
}

type msg_decl = {
  m_name : string;
  m_from : string;
  m_to : string;
  m_size : float;
  m_frozen : bool;
}

type parse_state = {
  mutable k : int option;
  mutable deadline : float option;
  mutable period : float option;
  mutable nodes : int option;
  mutable bus : Bus.t option;
  mutable procs : proc_decl list;  (* reversed *)
  mutable msgs : msg_decl list;  (* reversed *)
  mutable wcets : (int * string * string list) list;  (* reversed *)
}

let tokenize line =
  let without_comment =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' without_comment
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* Far above any realistic time, size or overhead (integers stay exact
   below 2^53), and far enough below [max_float] that sums over a whole
   schedule never overflow to infinity. *)
let max_magnitude = 1e15

let float_of ln s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f ->
      if Float.abs f > max_magnitude then
        fail ln "number %S exceeds the magnitude bound %g" s max_magnitude;
      f
  | Some _ | None -> fail ln "expected a finite number, got %S" s

let int_of ln s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail ln "expected an integer, got %S" s

(* Parse [key value] option pairs and flags from a token list. *)
let parse_process ln toks =
  match toks with
  | name :: rest ->
      let d =
        ref
          {
            p_name = name;
            p_alpha = 0.;
            p_mu = 0.;
            p_chi = 0.;
            p_release = 0.;
            p_local_deadline = None;
            p_frozen = false;
          }
      in
      let rec go = function
        | [] -> ()
        | "frozen" :: rest ->
            d := { !d with p_frozen = true };
            go rest
        | "alpha" :: v :: rest ->
            d := { !d with p_alpha = float_of ln v };
            go rest
        | "mu" :: v :: rest ->
            d := { !d with p_mu = float_of ln v };
            go rest
        | "chi" :: v :: rest ->
            d := { !d with p_chi = float_of ln v };
            go rest
        | "release" :: v :: rest ->
            d := { !d with p_release = float_of ln v };
            go rest
        | "local-deadline" :: v :: rest ->
            d := { !d with p_local_deadline = Some (float_of ln v) };
            go rest
        | tok :: _ -> fail ln "unknown process attribute %S" tok
      in
      go rest;
      !d
  | [] -> fail ln "process: missing name"

let parse_message ln toks =
  match toks with
  | name :: "from" :: src :: "to" :: dst :: rest ->
      let size = ref 0. and frozen = ref false in
      let rec go = function
        | [] -> ()
        | "size" :: v :: rest ->
            size := float_of ln v;
            go rest
        | "frozen" :: rest ->
            frozen := true;
            go rest
        | tok :: _ -> fail ln "unknown message attribute %S" tok
      in
      go rest;
      { m_name = name; m_from = src; m_to = dst; m_size = !size;
        m_frozen = !frozen }
  | _ -> fail ln "message: expected 'message <name> from <P> to <P> ...'"

let parse_bus ln toks =
  match toks with
  | "tdma" :: rest ->
      let slot = ref 10. and bandwidth = ref 1. in
      let rec go = function
        | [] -> ()
        | "slot" :: v :: rest ->
            slot := float_of ln v;
            go rest
        | "bandwidth" :: v :: rest ->
            bandwidth := float_of ln v;
            go rest
        | tok :: _ -> fail ln "unknown tdma attribute %S" tok
      in
      go rest;
      `Tdma (!slot, !bandwidth)
  | "single" :: rest ->
      let bandwidth = ref 1. and setup = ref 0. in
      let rec go = function
        | [] -> ()
        | "bandwidth" :: v :: rest ->
            bandwidth := float_of ln v;
            go rest
        | "setup" :: v :: rest ->
            setup := float_of ln v;
            go rest
        | tok :: _ -> fail ln "unknown single-bus attribute %S" tok
      in
      go rest;
      `Single (!bandwidth, !setup)
  | _ -> fail ln "bus: expected 'bus tdma ...' or 'bus single ...'"

let parse text =
  let st =
    {
      k = None;
      deadline = None;
      period = None;
      nodes = None;
      bus = None;
      procs = [];
      msgs = [];
      wcets = [];
    }
  in
  let bus_spec = ref None in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      match tokenize line with
      | [] -> ()
      | "k" :: [ v ] ->
          let k = int_of ln v in
          if k < 0 then fail ln "k must be non-negative (got %d)" k;
          st.k <- Some k
      | "deadline" :: [ v ] -> st.deadline <- Some (float_of ln v)
      | "period" :: [ v ] -> st.period <- Some (float_of ln v)
      | "nodes" :: [ v ] -> st.nodes <- Some (int_of ln v)
      | "bus" :: rest -> bus_spec := Some (parse_bus ln rest)
      | "process" :: rest -> st.procs <- parse_process ln rest :: st.procs
      | "message" :: rest -> st.msgs <- parse_message ln rest :: st.msgs
      | "wcet" :: name :: entries ->
          st.wcets <- (ln, name, entries) :: st.wcets
      | tok :: _ -> fail ln "unknown directive %S" tok)
    (String.split_on_char '\n' text);
  let nodes =
    match st.nodes with
    | Some n when n > 0 -> n
    | Some n -> fail 0 "nodes must be positive (got %d)" n
    | None -> fail 0 "missing 'nodes' directive"
  in
  let bus =
    match !bus_spec with
    | Some (`Tdma (slot, bw)) -> Bus.tdma ~slot_length:slot ~bandwidth:bw nodes
    | Some (`Single (bw, setup)) -> Bus.single ~setup ~bandwidth:bw ()
    | None -> Arch.default_bus ~node_count:nodes
  in
  let arch = Arch.make ~node_count:nodes ~bus () in
  let procs = List.rev st.procs in
  let msgs = List.rev st.msgs in
  if procs = [] then fail 0 "no processes declared";
  let b = Graph.Builder.create () in
  let pid_of_name = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if Hashtbl.mem pid_of_name d.p_name then
        fail 0 "duplicate process %S" d.p_name;
      let overheads =
        Overheads.make ~alpha:d.p_alpha ~mu:d.p_mu ~chi:d.p_chi
      in
      let pid =
        Graph.Builder.add_process b ~overheads ~release:d.p_release
          ?local_deadline:d.p_local_deadline ~name:d.p_name
      in
      Hashtbl.add pid_of_name d.p_name pid)
    procs;
  let lookup ?(ln = 0) name =
    match Hashtbl.find_opt pid_of_name name with
    | Some pid -> pid
    | None -> fail ln "unknown process %S" name
  in
  let frozen = ref [] in
  List.iter
    (fun m ->
      let mid =
        Graph.Builder.add_message b ~name:m.m_name ~src:(lookup m.m_from)
          ~dst:(lookup m.m_to) ~size:m.m_size
      in
      if m.m_frozen then frozen := Transparency.Msg mid :: !frozen)
    msgs;
  List.iter
    (fun d ->
      if d.p_frozen then
        frozen := Transparency.Proc (lookup d.p_name) :: !frozen)
    procs;
  let graph = Graph.Builder.build b in
  let wcet = Wcet.create ~procs:(List.length procs) ~nodes in
  List.iter
    (fun (ln, name, entries) ->
      let pid = lookup ~ln name in
      if List.length entries <> nodes then
        fail ln "wcet %s: expected %d entries, got %d" name nodes
          (List.length entries);
      List.iteri
        (fun nid entry ->
          if entry <> "X" && entry <> "x" then begin
            let c = float_of ln entry in
            if c < 0. then
              fail ln "wcet %s: expected a non-negative time, got %S" name
                entry;
            Wcet.set wcet ~pid ~nid c
          end)
        entries)
    (List.rev st.wcets);
  (try Wcet.validate wcet
   with Invalid_argument m -> fail 0 "%s" m);
  let period =
    match (st.period, st.deadline) with
    | Some p, _ -> p
    | None, Some d -> d
    | None, None -> 1e9
  in
  let deadline = match st.deadline with Some d -> d | None -> period in
  let app =
    App.make
      ~transparency:(Transparency.of_list !frozen)
      ~graph ~deadline ~period ()
  in
  { app; arch; wcet; k = Option.value st.k ~default:1 }

(* The model constructors check cross-field constraints (deadline
   within period, positive sizes, ...); what they reject is an error of
   the document as a whole. *)
let of_string text =
  try parse text
  with Invalid_argument message -> raise (Parse_error { line = 0; message })

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Shortest decimal rendering that parses back to the same float. *)
let fstr f =
  let try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  match try_prec 6 with
  | Some s -> s
  | None -> (
      match try_prec 12 with
      | Some s -> s
      | None -> (
          match try_prec 15 with Some s -> s | None -> Printf.sprintf "%.17g" f))

let bus_to_string arch =
  let b = Arch.bus arch in
  if Bus.is_tdma b then
    Printf.sprintf "bus tdma slot %s bandwidth %s"
      (fstr (Bus.round_length b /. float_of_int (Arch.node_count arch)))
      (fstr
         (let tx = Bus.tx_time b ~size:1. in
          if tx > 0. then 1. /. tx else 1.))
  else
    let tx1 = Bus.tx_time b ~size:1. and tx2 = Bus.tx_time b ~size:2. in
    let per_unit = tx2 -. tx1 in
    let setup = tx1 -. per_unit in
    Printf.sprintf "bus single bandwidth %s setup %s"
      (fstr (if per_unit > 0. then 1. /. per_unit else 1.))
      (fstr (max 0. setup))

let to_string t =
  let buf = Buffer.create 1024 in
  let g = t.app.App.graph in
  let tr = t.app.App.transparency in
  Buffer.add_string buf "# ftes synthesis instance\n";
  Buffer.add_string buf (Printf.sprintf "k %d\n" t.k);
  Buffer.add_string buf
    (Printf.sprintf "deadline %s\n" (fstr t.app.App.deadline));
  Buffer.add_string buf (Printf.sprintf "period %s\n" (fstr t.app.App.period));
  Buffer.add_string buf
    (Printf.sprintf "nodes %d\n" (Arch.node_count t.arch));
  Buffer.add_string buf (bus_to_string t.arch ^ "\n\n");
  Array.iter
    (fun (p : Graph.process) ->
      Buffer.add_string buf
        (Printf.sprintf "process %s alpha %s mu %s chi %s" p.Graph.pname
           (fstr p.Graph.overheads.Overheads.alpha)
           (fstr p.Graph.overheads.Overheads.mu)
           (fstr p.Graph.overheads.Overheads.chi));
      if p.Graph.release <> 0. then
        Buffer.add_string buf
          (Printf.sprintf " release %s" (fstr p.Graph.release));
      (match p.Graph.local_deadline with
      | Some d ->
          Buffer.add_string buf (Printf.sprintf " local-deadline %s" (fstr d))
      | None -> ());
      if Transparency.is_frozen_proc tr p.Graph.pid then
        Buffer.add_string buf " frozen";
      Buffer.add_char buf '\n')
    (Graph.processes g);
  Buffer.add_char buf '\n';
  Array.iter
    (fun (m : Graph.message) ->
      Buffer.add_string buf
        (Printf.sprintf "message %s from %s to %s size %s" m.Graph.mname
           (Graph.process g m.Graph.src).Graph.pname
           (Graph.process g m.Graph.dst).Graph.pname (fstr m.Graph.size));
      if Transparency.is_frozen_msg tr m.Graph.mid then
        Buffer.add_string buf " frozen";
      Buffer.add_char buf '\n')
    (Graph.messages g);
  Buffer.add_char buf '\n';
  Array.iter
    (fun (p : Graph.process) ->
      Buffer.add_string buf (Printf.sprintf "wcet %s" p.Graph.pname);
      for nid = 0 to Arch.node_count t.arch - 1 do
        match Wcet.get t.wcet ~pid:p.Graph.pid ~nid with
        | Some c -> Buffer.add_string buf (Printf.sprintf " %s" (fstr c))
        | None -> Buffer.add_string buf " X"
      done;
      Buffer.add_char buf '\n')
    (Graph.processes g);
  Buffer.contents buf

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let to_problem ?policies ?mapping t =
  let policies =
    match policies with
    | Some p -> p
    | None -> Ftes_ftcpg.Problem.default_policies ~app:t.app ~k:t.k
  in
  let mapping =
    match mapping with
    | Some m -> m
    | None -> Ftes_ftcpg.Problem.fastest_mapping ~app:t.app ~wcet:t.wcet ~policies
  in
  Ftes_ftcpg.Problem.make ~app:t.app ~arch:t.arch ~wcet:t.wcet ~k:t.k ~policies
    ~mapping

let equal (a : t) (b : t) =
  a.k = b.k
  && a.app.App.deadline = b.app.App.deadline
  && a.app.App.period = b.app.App.period
  && Arch.node_count a.arch = Arch.node_count b.arch
  && Graph.process_count a.app.App.graph = Graph.process_count b.app.App.graph
  && Graph.message_count a.app.App.graph = Graph.message_count b.app.App.graph
  && Transparency.equal a.app.App.transparency b.app.App.transparency
  && (let ga = a.app.App.graph and gb = b.app.App.graph in
      Array.for_all2
        (fun (p : Graph.process) (q : Graph.process) ->
          p.Graph.pname = q.Graph.pname
          && Overheads.equal p.Graph.overheads q.Graph.overheads
          && p.Graph.release = q.Graph.release
          && p.Graph.local_deadline = q.Graph.local_deadline)
        (Graph.processes ga) (Graph.processes gb)
      && Array.for_all2
           (fun (m : Graph.message) (n : Graph.message) ->
             m.Graph.mname = n.Graph.mname
             && m.Graph.src = n.Graph.src
             && m.Graph.dst = n.Graph.dst
             && m.Graph.size = n.Graph.size)
           (Graph.messages ga) (Graph.messages gb))
  && (let rec eq pid =
        pid >= Wcet.proc_count a.wcet
        || (List.for_all
              (fun nid ->
                Wcet.get a.wcet ~pid ~nid = Wcet.get b.wcet ~pid ~nid)
              (List.init (Wcet.node_count a.wcet) (fun i -> i))
           && eq (pid + 1))
      in
      eq 0)
