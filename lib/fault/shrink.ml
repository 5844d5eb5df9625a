let earlier at =
  if at = 0 then [] else List.sort_uniq compare [ 0; at / 2; at - 1 ]

let set_nth plan i inj = List.mapi (fun j x -> if j = i then inj else x) plan

let candidates plan =
  let drops =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) plan) plan
  in
  let moves =
    List.concat
      (List.mapi
         (fun i (inj : Plan.injection) ->
           List.map
             (fun k -> set_nth plan i { inj with Plan.at_step = k })
             (earlier inj.Plan.at_step))
         plan)
  in
  drops @ moves

let greedy candidates fails x =
  if not (fails x) then x
  else
    let rec go x =
      match List.find_opt fails (candidates x) with
      | Some smaller -> go smaller
      | None -> x
    in
    go x

let minimize fails plan = greedy candidates fails plan
