(* End-to-end tests of the ftes command line: malformed instance files
   are user errors reported as FILE:LINE: message with exit code 3
   (never an uncaught exception, exit 125), and --validate (or
   simulate) without schedule tables reports why and exits 4 instead
   of printing OK or crashing. *)

let ftes = "../bin/ftes.exe"

(* Run [ftes args], returning (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "ftes-cli" ".out"
  and err = Filename.temp_file "ftes-cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" ftes
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote out) (Filename.quote err))
      in
      let read f = In_channel.with_open_text f In_channel.input_all in
      (code, read out, read err))

let contains = Astring_contains.contains

let with_file text f =
  let path = Filename.temp_file "ftes-cli" ".ftes" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      f path)

let generate args =
  match run ("generate" :: args) with
  | 0, text, _ -> text
  | code, _, err -> Alcotest.failf "generate exited %d: %s" code err

let small () = generate [ "-p"; "6"; "-n"; "2"; "-k"; "2"; "--seed"; "1" ]

(* The 1-based line of the first line of [text] satisfying [p]. *)
let line_where p text =
  let rec go i = function
    | [] -> Alcotest.fail "no such line"
    | l :: rest -> if p l then i else go (i + 1) rest
  in
  go 1 (String.split_on_char '\n' text)

let starts_with prefix s = String.starts_with ~prefix s

let check_bad_input ~what ~line ~mentions text =
  with_file text (fun path ->
      let code, _, err = run [ "synthesize"; path ] in
      Alcotest.(check int) (what ^ ": exit code") 3 code;
      Alcotest.(check bool) (what ^ ": no uncaught exception") false
        (contains err "uncaught exception");
      let location =
        match line with
        | Some l -> Printf.sprintf "%s:%d: " path l
        | None -> path ^ ": "
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S starts with %S" what err location)
        true (starts_with location err);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" what err mentions)
        true (contains err mentions))

let test_unknown_directive () =
  let text = small () in
  let line = line_where (starts_with "k ") text in
  let text =
    String.concat "\n"
      (List.map
         (fun l -> if starts_with "k " l then "bogus 2" else l)
         (String.split_on_char '\n' text))
  in
  check_bad_input ~what:"unknown directive" ~line:(Some line)
    ~mentions:"unknown directive" text

let test_negative_wcet () =
  let text = small () in
  let line = line_where (starts_with "wcet ") text in
  let text =
    String.concat "\n"
      (List.mapi
         (fun i l ->
           if i + 1 = line then
             match String.split_on_char ' ' l with
             | w :: name :: _ :: rest ->
                 String.concat " " (w :: name :: "-5" :: rest)
             | _ -> l
           else l)
         (String.split_on_char '\n' text))
  in
  check_bad_input ~what:"negative wcet" ~line:(Some line) ~mentions:"wcet"
    text

(* A finite number so large that schedule arithmetic would overflow to
   infinity is rejected on its line, like a non-finite one. *)
let test_huge_number () =
  let text = small () in
  let is_bus = starts_with "bus " in
  let line = line_where is_bus text in
  let text =
    String.concat "\n"
      (List.map
         (fun l -> if is_bus l then "bus tdma slot 1e308 bandwidth 1" else l)
         (String.split_on_char '\n' text))
  in
  check_bad_input ~what:"huge number" ~line:(Some line) ~mentions:"1e308" text

let test_truncated_file () =
  let text = small () in
  check_bad_input ~what:"truncated file" ~line:None ~mentions:""
    (String.sub text 0 (String.length text / 3))

let test_validate_without_tables () =
  let check ~what ~args ~reason =
    let code, out, _ = run args in
    Alcotest.(check int) (what ^ ": exit code") 4 code;
    Alcotest.(check bool) (what ^ ": no OK verdict") false
      (contains out "fault-injection validation: OK");
    Alcotest.(check bool)
      (Printf.sprintf "%s: reason %S given" what reason)
      true (contains out reason)
  in
  with_file (small ()) (fun path ->
      check ~what:"--no-tables"
        ~args:[ "synthesize"; path; "--no-tables"; "--validate" ]
        ~reason:"--no-tables")

(* A fully transparent k = 5 instance whose conditional schedule exceeds
   the track budget: the FT-CPG exists, the tables do not. *)
let test_validate_over_track_budget () =
  let text =
    generate
      [ "-p"; "30"; "-n"; "4"; "-k"; "5"; "--seed"; "1"; "--frozen-procs"; "1";
        "--frozen-msgs"; "1" ]
  in
  with_file text (fun path ->
      let code, out, _ = run [ "synthesize"; path; "--validate" ] in
      Alcotest.(check int) "exit code" 4 code;
      Alcotest.(check bool) "no OK verdict" false
        (contains out "fault-injection validation: OK");
      Alcotest.(check bool) "track budget named" true
        (contains out "track budget");
      let code, _, err = run [ "simulate"; path ] in
      Alcotest.(check int) "simulate: exit code" 4 code;
      Alcotest.(check bool) "simulate: track budget named" true
        (contains err "track budget"))

let () =
  Alcotest.run "cli"
    [
      ( "malformed input",
        [
          Alcotest.test_case "unknown directive" `Quick test_unknown_directive;
          Alcotest.test_case "negative wcet" `Quick test_negative_wcet;
          Alcotest.test_case "huge number" `Quick test_huge_number;
          Alcotest.test_case "truncated file" `Quick test_truncated_file;
        ] );
      ( "validate without tables",
        [
          Alcotest.test_case "--no-tables" `Quick test_validate_without_tables;
          Alcotest.test_case "over the track budget" `Slow
            test_validate_over_track_budget;
        ] );
    ]
